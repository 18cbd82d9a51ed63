//go:build !race

package broker

// integrationSpeedScale divides measured reducing speeds in the fan-out
// integration test so the simulated links and the real CPU sit in the
// paper's operating regime: fast link below the compression threshold,
// slow link above it. See the race-tagged sibling for the -race values.
const integrationSpeedScale = 25

// integrationFastNoneFrac is the fraction of the fast link's blocks that
// must ship uncompressed. Native builds hold the strict bar.
const integrationFastNoneFrac = 0.8

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = false
