// Stand-in for sisg/internal/metrics: the analyzer recognizes any type
// named Registry in a package named metrics, so the fixture does not need
// to import the real module.
package metrics

// Label is one name/value pair on a series.
type Label struct{ Name, Value string }

// Registry mirrors the registration surface of the real registry.
type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...Label) int { return 0 }

func (r *Registry) Gauge(name, help string, labels ...Label) int { return 0 }

func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {}

func (r *Registry) Histogram(name, help string, labels ...Label) int { return 0 }
