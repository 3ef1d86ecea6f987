#include "geometry/celestial.h"

#include <cmath>

namespace fnproxy::geometry {

double DegreesToRadians(double degrees) { return degrees * M_PI / 180.0; }

Point RaDecToUnitVector(double ra_deg, double dec_deg) {
  const std::array<double, 3> v = RaDecToUnitArray(ra_deg, dec_deg);
  return Point(v.begin(), v.end());
}

std::array<double, 3> RaDecToUnitArray(double ra_deg, double dec_deg) {
  const double ra = DegreesToRadians(ra_deg);
  const double dec = DegreesToRadians(dec_deg);
  const double cos_dec = std::cos(dec);
  return {std::cos(ra) * cos_dec, std::sin(ra) * cos_dec, std::sin(dec)};
}

double ArcminToChord(double radius_arcmin) {
  double theta = DegreesToRadians(radius_arcmin / 60.0);
  return 2.0 * std::sin(theta / 2.0);
}

Hypersphere ConeToHypersphere(double ra_deg, double dec_deg,
                              double radius_arcmin) {
  return Hypersphere(RaDecToUnitVector(ra_deg, dec_deg),
                     ArcminToChord(radius_arcmin));
}

double AngularSeparationDeg(double ra1_deg, double dec1_deg, double ra2_deg,
                            double dec2_deg) {
  Point a = RaDecToUnitVector(ra1_deg, dec1_deg);
  Point b = RaDecToUnitVector(ra2_deg, dec2_deg);
  double cos_angle = Dot(a, b);
  cos_angle = std::min(1.0, std::max(-1.0, cos_angle));
  return std::acos(cos_angle) * 180.0 / M_PI;
}

}  // namespace fnproxy::geometry
