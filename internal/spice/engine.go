package spice

import (
	"fmt"
	"math"
	"sort"
)

// Circuit is a netlist under construction: named nodes plus devices.
// The zero value is not ready; use NewCircuit.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string
	devices   []Device
	vsources  []*VSource
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit {
	return &Circuit{nodeIndex: make(map[string]int)}
}

// Node returns the index of the named node, creating it on first use.
// The name "0" (Ground) maps to index -1.
func (c *Circuit) Node(name string) int {
	if name == Ground {
		return -1
	}
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeIndex[name] = i
	c.nodeNames = append(c.nodeNames, name)
	return i
}

// NodeNames returns the non-ground node names in index order.
func (c *Circuit) NodeNames() []string {
	out := make([]string, len(c.nodeNames))
	copy(out, c.nodeNames)
	return out
}

// AddR adds a resistor between named nodes.
func (c *Circuit) AddR(name, a, b string, ohms float64) error {
	if err := validPositive(name, ohms); err != nil {
		return err
	}
	c.devices = append(c.devices, &Resistor{Name: name, A: c.Node(a), B: c.Node(b), Ohms: ohms})
	return nil
}

// AddC adds a capacitor between named nodes.
func (c *Circuit) AddC(name, a, b string, farads float64) error {
	if err := validPositive(name, farads); err != nil {
		return err
	}
	c.devices = append(c.devices, &Capacitor{Name: name, A: c.Node(a), B: c.Node(b), Farads: farads})
	return nil
}

// AddV adds an ideal voltage source (positive terminal a).
func (c *Circuit) AddV(name, a, b string, e Waveform) {
	v := &VSource{Name: name, A: c.Node(a), B: c.Node(b), E: e}
	c.devices = append(c.devices, v)
	c.vsources = append(c.vsources, v)
}

// AddMOS adds a MOSFET.
func (c *Circuit) AddMOS(name string, typ MOSType, d, g, s string, w, l, k, vt float64) error {
	if err := validPositive(name, w, l, k, vt); err != nil {
		return err
	}
	c.devices = append(c.devices, &MOSFET{
		Name: name, Type: typ,
		D: c.Node(d), G: c.Node(g), S: c.Node(s),
		W: w, L: l, K: k, Vt: vt, Lambda: 0.02,
	})
	return nil
}

// AddSwitch adds an ideal controlled switch.
func (c *Circuit) AddSwitch(name, a, b string, ctrl Waveform, thresh float64) {
	c.devices = append(c.devices, &Switch{
		Name: name, A: c.Node(a), B: c.Node(b),
		Ctrl: ctrl, Thresh: thresh, OnOhms: 100, OffOhms: 1e12,
	})
}

// Devices returns the devices in insertion order.
func (c *Circuit) Devices() []Device { return c.devices }

// TransientOptions configures a transient run.
type TransientOptions struct {
	// Dt is the timestep; Stop the end time (both seconds).
	Dt, Stop float64
	// MaxNewton bounds Newton iterations per step.
	MaxNewton int
	// Tol is the Newton convergence tolerance on voltage updates.
	Tol float64
	// Trapezoidal switches the capacitor integration from backward
	// Euler (robust, first order) to the trapezoidal rule (second
	// order; preferred when waveform accuracy matters).
	Trapezoidal bool
	// Record lists the node names to record; nil records all nodes.
	Record []string
	// InitialV seeds node voltages by name at t=0 (nodes not listed
	// start at 0). This replaces a DC operating-point solve, which the
	// strongly bistable latch circuits would make ill-conditioned.
	InitialV map[string]float64
}

// Trace is a recorded waveform.
type Trace struct {
	Node string
	T, V []float64
}

// At returns the trace value at time t by linear interpolation.
func (tr *Trace) At(t float64) float64 {
	n := len(tr.T)
	if n == 0 {
		return 0
	}
	if t <= tr.T[0] {
		return tr.V[0]
	}
	if t >= tr.T[n-1] {
		return tr.V[n-1]
	}
	i := sort.SearchFloat64s(tr.T, t)
	if tr.T[i] == t {
		return tr.V[i]
	}
	f := (t - tr.T[i-1]) / (tr.T[i] - tr.T[i-1])
	return tr.V[i-1] + f*(tr.V[i]-tr.V[i-1])
}

// Final returns the last recorded value.
func (tr *Trace) Final() float64 {
	if len(tr.V) == 0 {
		return 0
	}
	return tr.V[len(tr.V)-1]
}

// Result holds the traces of a transient run.
type Result struct {
	traces map[string]*Trace
}

// Trace returns the waveform of a node, or an error if it was not
// recorded.
func (r *Result) Trace(node string) (*Trace, error) {
	tr, ok := r.traces[node]
	if !ok {
		return nil, fmt.Errorf("spice: node %q not recorded", node)
	}
	return tr, nil
}

// Nodes returns the recorded node names, sorted.
func (r *Result) Nodes() []string {
	out := make([]string, 0, len(r.traces))
	for n := range r.traces {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Transient runs a fixed-step backward-Euler transient analysis with
// Newton iteration at each step.
func (c *Circuit) Transient(o TransientOptions) (*Result, error) {
	if o.Dt <= 0 || o.Stop <= 0 || o.Dt > o.Stop {
		return nil, fmt.Errorf("spice: invalid transient window dt=%v stop=%v", o.Dt, o.Stop)
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 80
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	nNodes := len(c.nodeNames)
	// Assign branch rows to voltage sources.
	for i, v := range c.vsources {
		v.Branch = nNodes + i
	}
	dim := nNodes + len(c.vsources)
	if dim == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}

	x := make([]float64, dim)
	prev := make([]float64, dim)
	for name, v := range o.InitialV {
		if name == Ground {
			continue
		}
		i, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("spice: initial voltage for unknown node %q", name)
		}
		prev[i] = v
		x[i] = v
	}

	record := o.Record
	if record == nil {
		record = c.NodeNames()
	}
	res := &Result{traces: make(map[string]*Trace, len(record))}
	recIdx := make([]int, len(record))
	for i, name := range record {
		idx, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("spice: record of unknown node %q", name)
		}
		recIdx[i] = idx
		res.traces[name] = &Trace{Node: name}
	}
	snapshot := func(t float64) {
		for i, name := range record {
			tr := res.traces[name]
			tr.T = append(tr.T, t)
			tr.V = append(tr.V, prev[recIdx[i]])
		}
	}
	snapshot(0)

	g := newMatrix(dim)
	rhs := make([]float64, dim)
	st := &State{X: x, Prev: prev, Dt: o.Dt, Trapezoidal: o.Trapezoidal}
	steps := int(math.Round(o.Stop / o.Dt))
	for step := 1; step <= steps; step++ {
		st.Time = float64(step) * o.Dt
		st.FirstStep = step == 1
		copy(x, prev) // warm start from previous solution
		converged := false
		for it := 0; it < o.MaxNewton; it++ {
			g.zero()
			for i := range rhs {
				rhs[i] = 0
			}
			s := &Stamper{g: g, rhs: rhs}
			for _, d := range c.devices {
				d.Stamp(s, st)
			}
			if err := g.solve(rhs); err != nil {
				return nil, fmt.Errorf("spice: t=%g: %w", st.Time, err)
			}
			// rhs now holds the new solution.
			var maxDelta float64
			for i := 0; i < nNodes; i++ {
				d := math.Abs(rhs[i] - x[i])
				if d > maxDelta {
					maxDelta = d
				}
			}
			// Damped update guards the latch's positive feedback.
			const damp = 1.0
			for i := range x {
				x[i] += damp * (rhs[i] - x[i])
			}
			if maxDelta < o.Tol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("spice: Newton did not converge at t=%g", st.Time)
		}
		// Commit reactive-device history before advancing.
		for _, d := range c.devices {
			if cap, ok := d.(*Capacitor); ok {
				cap.commit(st)
			}
		}
		copy(prev, x)
		snapshot(st.Time)
	}
	return res, nil
}
