#include "xml/xml.h"

#include <cctype>

#include "util/string_util.h"

namespace fnproxy::xml {

using util::Status;
using util::StatusOr;

const std::string* XmlElement::FindAttribute(const std::string& key) const {
  auto it = attributes_.find(key);
  return it == attributes_.end() ? nullptr : &it->second;
}

void XmlElement::SetAttribute(std::string key, std::string value) {
  attributes_[std::move(key)] = std::move(value);
}

XmlElement* XmlElement::AddChild(std::string name) {
  children_.push_back(std::make_unique<XmlElement>(std::move(name)));
  return children_.back().get();
}

const XmlElement* XmlElement::FindChild(std::string_view child_name) const {
  for (const auto& child : children_) {
    if (child->name() == child_name) return child.get();
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::FindChildren(
    std::string_view child_name) const {
  std::vector<const XmlElement*> result;
  for (const auto& child : children_) {
    if (child->name() == child_name) result.push_back(child.get());
  }
  return result;
}

StatusOr<std::string> XmlElement::ChildText(std::string_view child_name) const {
  const XmlElement* child = FindChild(child_name);
  if (child == nullptr) {
    return Status::NotFound("missing element <" + std::string(child_name) +
                            "> under <" + name_ + ">");
  }
  return child->text();
}

std::string EscapeXml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscapedXml(out, text);
  return out;
}

void AppendEscapedXml(std::string& out, std::string_view text) {
  // Copy runs of benign characters in one append instead of byte-at-a-time.
  size_t run_start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char* replacement = nullptr;
    switch (text[i]) {
      case '<':
        replacement = "&lt;";
        break;
      case '>':
        replacement = "&gt;";
        break;
      case '&':
        replacement = "&amp;";
        break;
      case '"':
        replacement = "&quot;";
        break;
      case '\'':
        replacement = "&apos;";
        break;
      default:
        continue;
    }
    out.append(text, run_start, i - run_start);
    out += replacement;
    run_start = i + 1;
  }
  out.append(text, run_start, text.size() - run_start);
}

std::string XmlElement::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + name_;
  for (const auto& [key, value] : attributes_) {
    out += " " + key + "=\"" + EscapeXml(value) + "\"";
  }
  if (children_.empty() && text_.empty()) {
    out += "/>\n";
    return out;
  }
  out += ">";
  if (children_.empty()) {
    out += EscapeXml(text_) + "</" + name_ + ">\n";
    return out;
  }
  out += "\n";
  if (!text_.empty()) {
    out += pad + "  " + EscapeXml(text_) + "\n";
  }
  for (const auto& child : children_) {
    out += child->ToString(indent + 1);
  }
  out += pad + "</" + name_ + ">\n";
  return out;
}

namespace {

/// Hand-rolled recursive-descent XML parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  StatusOr<std::unique_ptr<XmlElement>> ParseDocument() {
    SkipProlog();
    if (!SkipToTagOpen()) {
      return Status::ParseError("XML document has no root element");
    }
    auto root = ParseElement();
    if (!root.ok()) return root.status();
    SkipMisc();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing content after XML root element");
    }
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view token) {
    if (input_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  /// Skips the XML declaration and any comments/whitespace before the root.
  void SkipProlog() {
    SkipWhitespace();
    if (Match("<?")) {
      size_t end = input_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? input_.size() : end + 2;
    }
    SkipMisc();
  }

  /// Skips whitespace and comments.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (Match("<!--")) {
        size_t end = input_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
        continue;
      }
      break;
    }
  }

  bool SkipToTagOpen() {
    SkipMisc();
    return !AtEnd() && Peek() == '<';
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  StatusOr<std::string> ParseName() {
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) {
      return Status::ParseError(std::string("expected XML name at offset ") +
                                std::to_string(pos_));
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  static StatusOr<std::string> Unescape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Status::ParseError("unterminated XML entity");
      }
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "amp") {
        out += '&';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else if (!entity.empty() && entity[0] == '#') {
        std::string_view digits = entity.substr(1);
        int base = 10;
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits = digits.substr(1);
        }
        long code = std::strtol(std::string(digits).c_str(), nullptr, base);
        if (code <= 0 || code > 0x10FFFF) {
          return Status::ParseError("invalid numeric character reference");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (code >> 18));
          out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
      } else {
        return Status::ParseError("unknown XML entity: &" +
                                  std::string(entity) + ";");
      }
      i = semi;
    }
    return out;
  }

  Status NestedTooDeep() const {
    return Status::ParseError(std::string("XML nested deeper than ") +
                              std::to_string(kMaxXmlDepth) +
                              " levels at offset " + std::to_string(pos_));
  }

  StatusOr<std::unique_ptr<XmlElement>> ParseElement() {
    if (!Match("<")) {
      return Status::ParseError(std::string("expected '<' at offset ") +
                                std::to_string(pos_));
    }
    FNPROXY_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto element = std::make_unique<XmlElement>(name);
    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Status::ParseError("unterminated start tag <" + name);
      if (Peek() == '/' || Peek() == '>') break;
      FNPROXY_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Match("=")) {
        return Status::ParseError("expected '=' after attribute " + attr_name);
      }
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Status::ParseError("expected quoted value for attribute " +
                                  attr_name);
      }
      char quote = Peek();
      ++pos_;
      size_t end = input_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated attribute value for " +
                                  attr_name);
      }
      FNPROXY_ASSIGN_OR_RETURN(std::string value,
                               Unescape(input_.substr(pos_, end - pos_)));
      element->SetAttribute(std::move(attr_name), std::move(value));
      pos_ = end + 1;
    }
    if (Match("/>")) return element;
    if (!Match(">")) {
      return Status::ParseError("malformed start tag <" + name);
    }
    // Content: text and child elements until the matching end tag.
    std::string text;
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("missing end tag </" + name + ">");
      }
      if (Peek() == '<') {
        if (Match("<!--")) {
          size_t end = input_.find("-->", pos_);
          if (end == std::string_view::npos) {
            return Status::ParseError("unterminated XML comment");
          }
          pos_ = end + 3;
          continue;
        }
        if (input_.substr(pos_, 2) == "</") {
          pos_ += 2;
          FNPROXY_ASSIGN_OR_RETURN(std::string end_name, ParseName());
          SkipWhitespace();
          if (!Match(">")) {
            return Status::ParseError("malformed end tag </" + end_name);
          }
          if (end_name != name) {
            return Status::ParseError("mismatched end tag </" + end_name +
                                      ">, expected </" + name + ">");
          }
          FNPROXY_ASSIGN_OR_RETURN(std::string unescaped, Unescape(text));
          element->set_text(std::string(util::Trim(unescaped)));
          return element;
        }
        if (input_.substr(pos_, 2) == "<!") {
          return Status::ParseError(
              std::string("unsupported XML construct at offset ") +
              std::to_string(pos_));
        }
        if (depth_ == kMaxXmlDepth) return NestedTooDeep();
        ++depth_;
        FNPROXY_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                                 ParseElement());
        --depth_;
        // Transfer ownership into the tree.
        XmlElement* slot = element->AddChild(child->name());
        *slot = std::move(*child);
        continue;
      }
      text += Peek();
      ++pos_;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  /// Nesting level of the element being parsed; the root is level 1. An
  /// error abandons the parse, so early returns need not restore it.
  int depth_ = 1;
};

}  // namespace

StatusOr<std::unique_ptr<XmlElement>> ParseXml(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

}  // namespace fnproxy::xml
