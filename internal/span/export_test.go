package span

import (
	"time"
)

// Now returns wall-clock seconds since the collector epoch — the time
// base live drivers stamp spans with. 0 on a nil collector.
func (c *Collector) Now() float64 {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch).Seconds()
}
