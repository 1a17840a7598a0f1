package grid

import (
	"math"

	"tightsched/internal/registry"
)

// AdmissionPolicy orders the waiting queue: whenever processors free up,
// the pending application with the smallest Priority value is admitted
// first (ties broken by earlier arrival, then arrival index — the engine
// never consults anything else, so a policy IS its priority function).
type AdmissionPolicy interface {
	Name() string
	// Priority scores a pending application at slot now; smaller runs
	// first. Scores may depend on now (aging policies) but must be
	// deterministic.
	Priority(a Arrival, now int64) float64
}

// PreemptionPolicy decides whether an arriving application that found no
// free processor block may evict a running one. The victim restarts from
// scratch when readmitted — exactly the paper's semantics for an
// enrolled processor going DOWN, applied to the whole application.
type PreemptionPolicy interface {
	Name() string
	// Victim returns the index into running of the application to evict
	// for candidate, or -1 to keep the candidate waiting. prio scores
	// applications with the campaign's admission policy.
	Victim(candidate Arrival, running []Arrival, now int64, prio func(Arrival, int64) float64) int
}

// The built-in admission policies.

type fcfsPolicy struct{}

func (fcfsPolicy) Name() string                        { return "fcfs" }
func (fcfsPolicy) Priority(a Arrival, _ int64) float64 { return float64(a.T) }

type sjfPolicy struct{}

func (sjfPolicy) Name() string                        { return "sjf" }
func (sjfPolicy) Priority(a Arrival, _ int64) float64 { return float64(a.Wmin) }

type edfPolicy struct{}

func (edfPolicy) Name() string { return "edf" }
func (edfPolicy) Priority(a Arrival, _ int64) float64 {
	if a.Deadline == 0 {
		return math.Inf(1) // no deadline: yield to every deadline-bound app
	}
	return float64(a.T + a.Deadline)
}

// The built-in preemption policies.

type noPreempt struct{}

func (noPreempt) Name() string { return "none" }
func (noPreempt) Victim(Arrival, []Arrival, int64, func(Arrival, int64) float64) int {
	return -1
}

// lowestPriority evicts the running application with the worst (largest)
// admission priority, provided it is strictly worse than the candidate's
// — so a preemption always improves the running set and the engine's
// per-slot preemption loop terminates.
type lowestPriority struct{}

func (lowestPriority) Name() string { return "lowest-priority" }
func (lowestPriority) Victim(candidate Arrival, running []Arrival, now int64, prio func(Arrival, int64) float64) int {
	cand := prio(candidate, now)
	victim, worst := -1, cand
	for i, r := range running {
		if p := prio(r, now); p > worst {
			victim, worst = i, p
		}
	}
	return victim
}

// The policy registries, like sched's and avail's: string-keyed tables
// the built-ins self-register into at init, open to external policies,
// resolvable by name from sweep axes, journal headers, daemon specs and
// the façade. Factories are invoked once at registration to verify the
// policy is non-nil and its Name matches the registered key.

// AdmissionFactory returns a fresh admission policy instance.
type AdmissionFactory func() AdmissionPolicy

// PreemptionFactory returns a fresh preemption policy instance.
type PreemptionFactory func() PreemptionPolicy

var (
	admissions  = registry.New("grid", "policy", "admission policy", registry.Named[AdmissionPolicy])
	preemptions = registry.New("grid", "policy", "preemption policy", registry.Named[PreemptionPolicy])
)

// RegisterAdmission makes an admission policy resolvable by name.
func RegisterAdmission(name string, f AdmissionFactory) error { return admissions.Register(name, f) }

// RegisterPreemption makes a preemption policy resolvable by name.
func RegisterPreemption(name string, f PreemptionFactory) error { return preemptions.Register(name, f) }

// MustRegisterAdmission is RegisterAdmission that panics on error.
func MustRegisterAdmission(name string, f AdmissionFactory) { admissions.MustRegister(name, f) }

// MustRegisterPreemption is RegisterPreemption that panics on error.
func MustRegisterPreemption(name string, f PreemptionFactory) { preemptions.MustRegister(name, f) }

// Admission returns a fresh admission policy by name.
func Admission(name string) (AdmissionPolicy, error) {
	f, err := admissions.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Preemption returns a fresh preemption policy by name.
func Preemption(name string) (PreemptionPolicy, error) {
	f, err := preemptions.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// AdmissionNames returns every registered admission policy name, sorted.
// The slice is a fresh copy: callers may mutate it freely.
func AdmissionNames() []string { return admissions.Names() }

// PreemptionNames returns every registered preemption policy name,
// sorted. The slice is a fresh copy.
func PreemptionNames() []string { return preemptions.Names() }

func init() {
	MustRegisterAdmission("fcfs", func() AdmissionPolicy { return fcfsPolicy{} })
	MustRegisterAdmission("sjf", func() AdmissionPolicy { return sjfPolicy{} })
	MustRegisterAdmission("edf", func() AdmissionPolicy { return edfPolicy{} })
	MustRegisterPreemption("none", func() PreemptionPolicy { return noPreempt{} })
	MustRegisterPreemption("lowest-priority", func() PreemptionPolicy { return lowestPriority{} })
}
