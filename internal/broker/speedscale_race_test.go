//go:build race

package broker

// Under the race detector the Lempel-Ziv probe runs an order of magnitude
// slower, deflating measured reducing speeds. Scale down accordingly so the
// selector still sees "fast CPU relative to the slow link, slow CPU
// relative to the fast link" — the regime the integration test asserts.
const integrationSpeedScale = 4

// The race build also time-slices all subscribers onto instrumented (and on
// CI often single-core) schedulers, so the slow link's compression work can
// transiently starve the fast link's reader and collapse its observed
// goodput. Compressing during such a stall is correct adaptation, so the
// race build only requires a clear majority of raw blocks on the fast path;
// the strict 0.8 bar is enforced by the native build.
const integrationFastNoneFrac = 0.55

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = true
