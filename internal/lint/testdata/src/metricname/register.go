// Fixture for the metricname analyzer (module-wide; no path scope). The
// nested metrics package supplies a Registry the analyzer recognizes.
package app

import (
	"fmt"

	"example.com/app/metrics"
)

const goodName = "requests_total"

func register(reg *metrics.Registry, user string) {
	reg.Counter(goodName, "constant name")
	reg.Counter("literal_total", "string literal is a constant")
	reg.Histogram(goodName+"_seconds", "constant expression")

	reg.Gauge(fmt.Sprintf("user_%s_total", user), "formatted") // want "metric name passed to Gauge is not a compile-time constant"

	name := "per_user_" + user
	reg.GaugeFunc(name, "variable", nil) // want "metric name passed to GaugeFunc is not a compile-time constant"

	//lint:allow metricname names come from a bounded static table
	reg.Counter(tableName(0), "allowed")
}

func tableName(i int) string { return [...]string{"a_total"}[i] }
