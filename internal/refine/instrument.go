package refine

import "repro/internal/metrics"

// restarts counts local-search restarts computed; a θ sweep computes
// each at most once (restarts skipped by the witness early exit or by
// cancellation are not counted). Like rules.SignatureScans it is a
// process-wide counter: a serving stack attaches it to its registry
// (Registry.AttachCounter) so the search work behind /refine — client
// requests and background refreshes alike — is visible in GET /metrics.
var restarts metrics.Counter

// Restarts returns the cumulative number of local-search restarts
// computed since process start.
func Restarts() int64 { return restarts.Value() }

// RestartCounter returns the restart counter itself, for registration
// in a metrics registry.
func RestartCounter() *metrics.Counter { return &restarts }
