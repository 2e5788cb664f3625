// Fixture for the stale-suppression audit: one allow that earns its keep,
// one that suppresses nothing, one naming a check that does not exist, and
// one that suppresses but gives no reason.
package app

import "math/rand"

func used() int { return rand.Int() } //lint:allow globalrand deliberate: audit fixture, suppression in use

func stale() int { return 4 } //lint:allow globalrand nothing on this line violates anything

func unknown() int { return 4 } //lint:allow nosuchcheck the check name is a typo

func reasonless() int { return rand.Int() } //lint:allow globalrand
