#include "catalog/book_catalog.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace fnproxy::catalog {

using sql::Row;
using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;

sql::Schema BookCatalogSchema() {
  return Schema({{"bookID", ValueType::kInt},
                 {"title", ValueType::kString},
                 {"genre", ValueType::kInt},
                 {"price", ValueType::kDouble},
                 {"pages", ValueType::kInt},
                 {"year", ValueType::kInt},
                 {"rating", ValueType::kDouble},
                 {"f1", ValueType::kDouble},
                 {"f2", ValueType::kDouble},
                 {"f3", ValueType::kDouble}});
}

sql::Table GenerateBookCatalog(const BookCatalogConfig& config) {
  util::Random rng(config.seed);
  Table table(BookCatalogSchema());
  table.Reserve(config.num_books);

  // Genres cluster in feature space: books of a genre have similar price /
  // length / rating profiles, which is what makes similarity caching useful.
  struct GenreProfile {
    double price_mean;
    double pages_mean;
    double rating_mean;
  };
  std::vector<GenreProfile> genres;
  genres.reserve(config.num_genres);
  for (size_t g = 0; g < config.num_genres; ++g) {
    genres.push_back({rng.NextDouble(8.0, 80.0), rng.NextDouble(120.0, 900.0),
                      rng.NextDouble(2.5, 4.8)});
  }

  for (size_t n = 0; n < config.num_books; ++n) {
    size_t genre = rng.NextUint64(config.num_genres);
    const GenreProfile& profile = genres[genre];
    double price =
        std::max(1.0, profile.price_mean + rng.NextGaussian() * 8.0);
    double pages =
        std::max(40.0, profile.pages_mean + rng.NextGaussian() * 90.0);
    double rating =
        std::clamp(profile.rating_mean + rng.NextGaussian() * 0.5, 1.0, 5.0);
    int64_t year = 1950 + static_cast<int64_t>(rng.NextUint64(75));

    // Normalized similarity coordinates in [0, 1]^3.
    double f1 = std::clamp(price / 100.0, 0.0, 1.0);
    double f2 = std::clamp(pages / 1000.0, 0.0, 1.0);
    double f3 = std::clamp((rating - 1.0) / 4.0, 0.0, 1.0);

    Row row;
    row.reserve(10);
    row.push_back(Value::Int(static_cast<int64_t>(n + 1)));
    row.push_back(Value::String(std::string("Book #") + std::to_string(n + 1)));
    row.push_back(Value::Int(static_cast<int64_t>(genre)));
    row.push_back(Value::Double(price));
    row.push_back(Value::Int(static_cast<int64_t>(pages)));
    row.push_back(Value::Int(year));
    row.push_back(Value::Double(rating));
    row.push_back(Value::Double(f1));
    row.push_back(Value::Double(f2));
    row.push_back(Value::Double(f3));
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace fnproxy::catalog
