//go:build race

package filterjoin_test

// raceEnabled reports a -race build. The race runtime allocates on its
// own behalf, so allocation budgets are not checked under it.
const raceEnabled = true
