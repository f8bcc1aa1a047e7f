// Package demand holds the per-request point-query counters that wlpad
// reports in its /query meta. Every point query is answered by the
// converged query layer (pta.Result.PointsToAt over
// analysis.ContentsAfter); this package declares no second
// implementation of it.
package demand
