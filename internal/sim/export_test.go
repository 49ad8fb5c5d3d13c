package sim

import "time"

// Deadline returns the virtual time at which the event fires (or would have
// fired).
func (t Timer) Deadline() time.Duration {
	return t.at
}
