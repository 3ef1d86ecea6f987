#ifndef FNPROXY_GEOMETRY_CELESTIAL_H_
#define FNPROXY_GEOMETRY_CELESTIAL_H_

#include <array>

#include "geometry/hypersphere.h"
#include "geometry/point.h"

namespace fnproxy::geometry {

/// Celestial-coordinate helpers mirroring the SkyServer convention the paper
/// relies on (Fig. 3): a sky position given as right ascension / declination
/// in degrees maps onto the 3-D unit sphere as
///   x = cos(ra) cos(dec), y = sin(ra) cos(dec), z = sin(dec)
/// and a cone of angular radius `theta` around a position is exactly the set
/// of unit vectors within *chord* distance 2 sin(theta/2) of the center's
/// unit vector. fGetNearbyObjEq(ra, dec, radius_arcmin) is therefore the
/// 3-D hypersphere selection the function template declares.

/// Degrees-to-radians.
double DegreesToRadians(double degrees);

/// Maps (ra, dec) in degrees to the 3-D unit vector (cx, cy, cz).
Point RaDecToUnitVector(double ra_deg, double dec_deg);

/// RaDecToUnitVector's values in a fixed-size array, with no heap
/// allocation, for loops that map many positions.
std::array<double, 3> RaDecToUnitArray(double ra_deg, double dec_deg);

/// Chord distance on the unit sphere subtending `radius_arcmin` arcminutes.
double ArcminToChord(double radius_arcmin);

/// Builds the 3-D hypersphere region equivalent to
/// fGetNearbyObjEq(ra, dec, radius_arcmin).
Hypersphere ConeToHypersphere(double ra_deg, double dec_deg,
                              double radius_arcmin);

/// Great-circle angular separation (degrees) between two sky positions.
double AngularSeparationDeg(double ra1_deg, double dec1_deg, double ra2_deg,
                            double dec2_deg);

}  // namespace fnproxy::geometry

#endif  // FNPROXY_GEOMETRY_CELESTIAL_H_
