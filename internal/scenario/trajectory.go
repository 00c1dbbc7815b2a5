package scenario

import (
	"math"

	"gpsdl/internal/geo"
)

// Trajectories for the moving-receiver scenarios motivating the paper's
// introduction ("the object to be positioned may move at a high speed").

// CircularTrajectory returns a position function describing a receiver
// moving in a horizontal circle of the given radius (meters) at the given
// speed (m/s), centered on the origin point. Useful for vehicles on a test
// track; speed/radius choose the dynamics (300 m/s ≈ airliner).
func CircularTrajectory(center geo.ECEF, radius, speed float64) func(t float64) geo.ECEF {
	if radius <= 0 {
		return func(float64) geo.ECEF { return center }
	}
	omega := speed / radius
	return func(t float64) geo.ECEF {
		ang := omega * t
		off := geo.ENU{
			E: radius * math.Cos(ang),
			N: radius * math.Sin(ang),
			U: 0,
		}
		return geo.FromENU(center, off)
	}
}
