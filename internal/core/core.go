// Package core is the toolkit's public facade: it assembles Raw
// Information Sources (via CM-RIDs and translators), CM-Shells, the
// inter-shell transport, constraints with chosen or suggested strategies,
// and the resulting guarantees into one runnable deployment — the whole
// of Figure 2 behind one API.
//
// A deployment is built declaratively:
//
//	tk := core.New(core.Config{Clock: clk})
//	tk.AddSite(core.Site{RID: ridA, Local: &translator.LocalStores{Rel: dbA}})
//	tk.AddSite(core.Site{RID: ridB, Local: &translator.LocalStores{Rel: dbB}})
//	tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1})
//	tk.Deploy()
//	tk.Start()
//	...
//	reports := tk.CheckGuarantees()
//
// After (or during) a run, CheckGuarantees re-validates every declared
// guarantee against the recorded execution, CheckTrace re-validates the
// Appendix A.2 execution properties, and GuaranteeStatus reports which
// guarantees are currently invalidated by interface failures (Section 5).
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/demarcation"
	"cmtk/internal/durable"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/strategy"
	"cmtk/internal/trace"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// Config tunes a deployment.
type Config struct {
	// Clock drives the whole deployment; nil means real time.
	Clock vclock.Clock
	// BusLatency models the inter-shell link latency on the in-process
	// bus.  Ignored when an external Network is supplied.
	BusLatency time.Duration
	// FireDelay models per-shell rule processing delay.
	FireDelay time.Duration
	// Network overrides the in-process bus (e.g. a TCP mesh).  When nil a
	// Bus on the deployment clock is used.
	Network transport.Network
	// Trace, when non-nil, is the event trace the deployment records into
	// instead of a fresh one.  A restarted deployment that shares its
	// predecessor's trace lets the checker and the guarantees see the whole
	// history across the crash.
	Trace *trace.Trace
	// Durable, when set, makes the deployment crash-recoverable: every
	// shell journals its CM-private items, demarcation agents' values and
	// limits among them, into the store.  The caller keeps ownership
	// (Stop does not close it).  To journal the transport outbox too,
	// point ReliableOptions.Durable at the same store when building the
	// Network; harnesses simulate crashes with store.Crash.
	Durable *durable.Store
	// ShellOptions, when non-nil, rewrites each shell's options just
	// before construction: per-shell clock skew (vclock.Skewed) or a
	// private metrics registry.  The hook receives the shell's name and the
	// deployment-wide defaults and returns what the shell should use.
	ShellOptions func(name string, o shell.Options) shell.Options
}

// Site declares one information source.
type Site struct {
	// RID configures the CM-Translator for this source.
	RID *rid.Config
	// Local supplies in-process stores for local RIDs.
	Local *translator.LocalStores
	// Shell optionally names the shell hosting this site; sites sharing a
	// name share a shell (Figure 1's Site 3 has no shell of its own).
	// Empty means a dedicated shell named "shell-<site>".
	Shell string
	// Wrap, when non-nil, decorates the site's translator after it opens —
	// the hook fault injection (translator.Faulty) uses.
	Wrap func(cmi.Interface) cmi.Interface
}

// CopyConstraint declares X = Y with X primary.
type CopyConstraint struct {
	X, Y  string
	Arity int
	// Strategy picks from the menu: "notify", "cached", "poll", "monitor"
	// or "" / "auto" for the strongest applicable.
	Strategy string
	Options  strategy.Options
}

// guaranteeEntry ties a guarantee to the sites it depends on, for failure
// bookkeeping.
type guaranteeEntry struct {
	G      guarantee.Guarantee
	Sites  []string
	Metric bool
}

// Toolkit is one deployment under construction or running.
type Toolkit struct {
	cfg    Config
	clock  vclock.Clock
	tr     *trace.Trace
	spec   *rule.Spec
	sites  []Site
	copies []CopyConstraint

	userSpecs []*rule.Spec
	sweepers  []*strategy.Sweeper
	deployed  bool
	started   bool
	shells    map[string]*shell.Shell
	ifaces    map[string]cmi.Interface // by site
	entries   []guaranteeEntry
	network   transport.Network
}

// New creates an empty deployment.
func New(cfg Config) *Toolkit {
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	tr := cfg.Trace
	if tr == nil {
		tr = trace.New(nil)
	}
	return &Toolkit{
		cfg:    cfg,
		clock:  clock,
		tr:     tr,
		spec:   rule.NewSpec(),
		shells: map[string]*shell.Shell{},
		ifaces: map[string]cmi.Interface{},
	}
}

// Trace returns the deployment's shared event trace.
func (tk *Toolkit) Trace() *trace.Trace { return tk.tr }

// Clock returns the deployment clock.
func (tk *Toolkit) Clock() vclock.Clock { return tk.clock }

// Spec returns the (merged) strategy specification.
func (tk *Toolkit) Spec() *rule.Spec { return tk.spec }

// AddSite declares a source.  Must be called before Deploy.
func (tk *Toolkit) AddSite(s Site) error {
	if tk.deployed {
		return fmt.Errorf("core: deployment already built")
	}
	if s.RID == nil {
		return fmt.Errorf("core: site needs a CM-RID")
	}
	for _, prev := range tk.sites {
		if prev.RID.Site == s.RID.Site {
			return fmt.Errorf("core: duplicate site %s", s.RID.Site)
		}
	}
	tk.sites = append(tk.sites, s)
	return nil
}

// AddCopy declares a copy constraint.  Must be called before Deploy.
func (tk *Toolkit) AddCopy(c CopyConstraint) error {
	if tk.deployed {
		return fmt.Errorf("core: deployment already built")
	}
	tk.copies = append(tk.copies, c)
	return nil
}

// AddGuarantee registers an extra guarantee to track (programmatic
// strategies like the demarcation agents add theirs this way).
func (tk *Toolkit) AddGuarantee(g guarantee.Guarantee, sites ...string) {
	tk.entries = append(tk.entries, guaranteeEntry{G: g, Sites: sites, Metric: IsMetric(g)})
}

// siteOfItem finds which declared RID binds an item base.
func (tk *Toolkit) siteOfItem(base string) (Site, bool) {
	for _, s := range tk.sites {
		if _, ok := s.RID.Items[base]; ok {
			return s, true
		}
	}
	return Site{}, false
}

// Suggestions lists the strategies applicable to a copy constraint, in
// strength order — the Section 4.1 initialization dialogue.
func (tk *Toolkit) Suggestions(c CopyConstraint) ([]strategy.Choice, error) {
	xs, ok := tk.siteOfItem(c.X)
	if !ok {
		return nil, fmt.Errorf("core: no site binds item %s", c.X)
	}
	ys, ok := tk.siteOfItem(c.Y)
	if !ok {
		return nil, fmt.Errorf("core: no site binds item %s", c.Y)
	}
	xCaps := translator.CapsFromStatements(xs.RID.Statements, c.X)
	yCaps := translator.CapsFromStatements(ys.RID.Statements, c.Y)
	return strategy.SuggestCopy(
		strategy.Copy{X: c.X, Y: c.Y, Arity: c.Arity},
		xCaps, yCaps, xs.RID.Site, ys.RID.Site, c.Options,
	), nil
}

// Deploy builds translators, merges strategies into the spec, creates the
// shells and wires the transport.  After Deploy the topology is fixed;
// Start begins rule execution.
func (tk *Toolkit) Deploy() error {
	if tk.deployed {
		return fmt.Errorf("core: already deployed")
	}
	// 1. Sites and items into the spec; translators up.
	for _, s := range tk.sites {
		site := s.RID.Site
		tk.spec.Sites = append(tk.spec.Sites, site)
		for base := range s.RID.Items {
			if owner, dup := tk.spec.Items[base]; dup {
				return fmt.Errorf("core: item %s bound at both %s and %s", base, owner, site)
			}
			tk.spec.Items[base] = site
		}
		iface, err := translator.Open(s.RID, s.Local, tk.clock)
		if err != nil {
			return fmt.Errorf("core: opening translator for %s: %w", site, err)
		}
		if s.Wrap != nil {
			iface = s.Wrap(iface)
		}
		tk.ifaces[site] = iface
		// No-spontaneous-write promises (Ws(X, b) → F, Section 3.1.1) are
		// adopted as active rules: the shell then subscribes to the base
		// and any spontaneous write shows up as a property-6 violation of
		// the F obligation — the promise is monitored, not assumed.
		for _, st := range s.RID.Statements {
			if len(st.Steps) == 1 && st.Steps[0].Eff.Op == event.OpF {
				promise := st
				promise.ID = site + ":" + st.ID
				tk.spec.Rules = append(tk.spec.Rules, promise)
			}
		}
	}
	if err := tk.mergeUserSpecs(); err != nil {
		return err
	}
	// 2. Strategies for the declared constraints.
	for _, c := range tk.copies {
		choice, err := tk.pickStrategy(c)
		if err != nil {
			return err
		}
		if err := strategy.Merge(tk.spec, choice); err != nil {
			return fmt.Errorf("core: merging strategy %s: %w", choice.Name, err)
		}
		xs, _ := tk.siteOfItem(c.X)
		ys, _ := tk.siteOfItem(c.Y)
		for _, g := range choice.Guarantees {
			tk.AddGuarantee(g, xs.RID.Site, ys.RID.Site)
		}
	}
	// 3. Shells: group sites by shell name.
	byShell := map[string][]Site{}
	for _, s := range tk.sites {
		name := s.Shell
		if name == "" {
			name = "shell-" + s.RID.Site
		}
		byShell[name] = append(byShell[name], s)
	}
	// Private-item hosting sites may not be RIS sites; ensure each private
	// site exists (hosted by the shell of the site it names, or its own).
	for base, site := range tk.spec.Private {
		if !tk.spec.HasSite(site) {
			return fmt.Errorf("core: private item %s at unknown site %s", base, site)
		}
	}
	network := tk.cfg.Network
	if network == nil {
		network = transport.NewBus(tk.clock, tk.cfg.BusLatency)
	}
	tk.network = network
	names := make([]string, 0, len(byShell))
	for name := range byShell {
		names = append(names, name)
	}
	sort.Strings(names)
	opts := shell.Options{Clock: tk.clock, Trace: tk.tr, FireDelay: tk.cfg.FireDelay}
	for _, name := range names {
		shOpts := opts
		if tk.cfg.ShellOptions != nil {
			shOpts = tk.cfg.ShellOptions(name, opts)
		}
		sh := shell.New(name, tk.spec, shOpts)
		for _, s := range byShell[name] {
			sh.AddSite(s.RID.Site, tk.ifaces[s.RID.Site])
		}
		if tk.cfg.Durable != nil {
			if _, err := sh.EnableDurable(tk.cfg.Durable); err != nil {
				return fmt.Errorf("core: durable state for shell %s: %w", name, err)
			}
		}
		tk.shells[name] = sh
	}
	// Routing: every shell learns every site's host.
	siteShell := map[string]string{}
	for name, group := range byShell {
		for _, s := range group {
			siteShell[s.RID.Site] = name
		}
	}
	for _, sh := range tk.shells {
		for site, host := range siteShell {
			if host != sh.ID() {
				sh.Route(site, host)
			}
		}
		if err := sh.Attach(network); err != nil {
			return err
		}
	}
	if err := tk.spec.Validate(); err != nil {
		return err
	}
	tk.deployed = true
	return nil
}

// pickStrategy resolves a constraint's strategy choice.
func (tk *Toolkit) pickStrategy(c CopyConstraint) (strategy.Choice, error) {
	suggestions, err := tk.Suggestions(c)
	if err != nil {
		return strategy.Choice{}, err
	}
	if len(suggestions) == 0 {
		return strategy.Choice{}, fmt.Errorf("core: no applicable strategy for %s = %s with the declared interfaces", c.X, c.Y)
	}
	want := c.Strategy
	if want == "" || want == "auto" {
		return suggestions[0], nil
	}
	alias := map[string]string{
		"notify":  "notify-propagation",
		"cached":  "cached-propagation",
		"poll":    "polling",
		"monitor": "monitor",
	}
	if full, ok := alias[want]; ok {
		want = full
	}
	for _, s := range suggestions {
		if s.Name == want {
			return s, nil
		}
	}
	return strategy.Choice{}, fmt.Errorf("core: strategy %q not applicable for %s = %s (applicable: %v)",
		c.Strategy, c.X, c.Y, choiceNames(suggestions))
}

func choiceNames(cs []strategy.Choice) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// Start begins rule execution on every shell.
func (tk *Toolkit) Start() error {
	if !tk.deployed {
		return fmt.Errorf("core: Deploy before Start")
	}
	if tk.started {
		return fmt.Errorf("core: already started")
	}
	names := tk.shellNames()
	for _, name := range names {
		if err := tk.shells[name].Start(); err != nil {
			return err
		}
	}
	tk.started = true
	return nil
}

// Stop halts all shells, sweepers and translators.
func (tk *Toolkit) Stop() {
	for _, sw := range tk.sweepers {
		sw.Stop()
	}
	for _, name := range tk.shellNames() {
		tk.shells[name].Stop()
	}
	for _, iface := range tk.ifaces {
		iface.Close()
	}
	tk.started = false
}

// Durable returns the deployment's durable store, if any — the one
// supplied through Config.Durable.  Callers use it to share the store with
// a Reliable network, inspect WasClean, or inject a crash in tests.
func (tk *Toolkit) Durable() *durable.Store { return tk.cfg.Durable }

func (tk *Toolkit) shellNames() []string {
	names := make([]string, 0, len(tk.shells))
	for name := range tk.shells {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Shell returns a shell by name.
func (tk *Toolkit) Shell(name string) (*shell.Shell, bool) {
	sh, ok := tk.shells[name]
	return sh, ok
}

// ShellOfSite returns the shell hosting a site.
func (tk *Toolkit) ShellOfSite(site string) (*shell.Shell, bool) {
	for _, name := range tk.shellNames() {
		sh := tk.shells[name]
		if sh.Interface(site) != nil {
			return sh, true
		}
	}
	// The site may be hosted with a nil interface; fall back to routing by
	// name convention.
	sh, ok := tk.shells["shell-"+site]
	return sh, ok
}

// Interface returns the translator for a site.
func (tk *Toolkit) Interface(site string) (cmi.Interface, bool) {
	iface, ok := tk.ifaces[site]
	return iface, ok
}

// Guarantees lists the tracked guarantees.
func (tk *Toolkit) Guarantees() []guarantee.Guarantee {
	out := make([]guarantee.Guarantee, len(tk.entries))
	for i, e := range tk.entries {
		out[i] = e.G
	}
	return out
}

// CheckGuarantees evaluates every tracked guarantee against the recorded
// trace.
func (tk *Toolkit) CheckGuarantees() []guarantee.Report {
	return guarantee.CheckAll(tk.tr, tk.Guarantees()...)
}

// Rules returns all rules active in the deployment: strategy rules plus
// the interface rules the shells generated, as the trace checker needs.
func (tk *Toolkit) Rules() []rule.Rule {
	rules := append([]rule.Rule{}, tk.spec.Rules...)
	for _, name := range tk.shellNames() {
		rules = append(rules, tk.shells[name].ImplicitRules()...)
	}
	return rules
}

// CheckTrace validates the recorded execution against the Appendix A.2
// properties.
func (tk *Toolkit) CheckTrace() []trace.Violation {
	return trace.NewChecker(tk.Rules()).Check(tk.tr)
}

// Failures aggregates failures observed by all shells, deduplicated.
func (tk *Toolkit) Failures() []cmi.Failure {
	seen := map[string]bool{}
	var out []cmi.Failure
	for _, name := range tk.shellNames() {
		for _, f := range tk.shells[name].Failures() {
			key := fmt.Sprintf("%s|%s|%s|%v|%v", f.Kind, f.Site, f.Op, f.When, f.Err)
			if !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// GuaranteeStatus reports, for each tracked guarantee, whether it is
// currently valid given the observed failures (Section 5): a metric
// failure at an involved site invalidates its metric guarantees only; a
// logical failure invalidates all of them.
type GuaranteeStatus struct {
	Guarantee string
	Formula   string
	Metric    bool
	Valid     bool
	Reason    string
}

// Status computes the current guarantee validity.
func (tk *Toolkit) Status() []GuaranteeStatus {
	failed := map[string]cmi.FailureKind{}
	for _, f := range tk.Failures() {
		if prev, ok := failed[f.Site]; !ok || (prev == cmi.FailMetric && f.Kind == cmi.FailLogical) {
			failed[f.Site] = f.Kind
		}
	}
	out := make([]GuaranteeStatus, len(tk.entries))
	for i, e := range tk.entries {
		st := GuaranteeStatus{
			Guarantee: e.G.Name(),
			Formula:   e.G.Formula(),
			Metric:    e.Metric,
			Valid:     true,
		}
		for _, site := range e.Sites {
			kind, ok := failed[site]
			if !ok {
				continue
			}
			if kind == cmi.FailLogical {
				st.Valid = false
				st.Reason = fmt.Sprintf("logical failure at site %s", site)
				break
			}
			if e.Metric {
				st.Valid = false
				st.Reason = fmt.Sprintf("metric failure at site %s", site)
				break
			}
		}
		out[i] = st
	}
	return out
}

// IsMetric classifies a guarantee per Section 3.3: metric guarantees
// reference explicit time bounds, non-metric ones only event ordering.
func IsMetric(g guarantee.Guarantee) bool {
	switch g.(type) {
	case guarantee.Follows, guarantee.Leads, guarantee.StrictlyFollows, guarantee.Invariant:
		return false
	default:
		return true
	}
}

// RecordSpontaneous records an application write that the CM could not
// observe (no notify interface), so the trace still models the whole
// system.  Harness code that writes a store natively (e.g. raw SQL) calls
// this right after the write.
func (tk *Toolkit) RecordSpontaneous(site string, item data.ItemName, old, new data.Value) error {
	sh, ok := tk.ShellOfSite(site)
	if !ok {
		return fmt.Errorf("core: no shell hosts site %s", site)
	}
	sh.Spontaneous(item, old, new)
	return nil
}

// Inequality declares X ≤ Y between two CM-managed counters, maintained
// by the Demarcation Protocol (Section 6.1).  Unlike copy constraints,
// updates to demarcation-managed items flow through the returned agents
// (the protocol must see every update to enforce the local limits), so
// AddInequality is called after Deploy and returns the two agents.
type Inequality struct {
	X, Y string // item base names; X at its site must stay ≤ Y at its
	// InitX/InitY are the initial values, LimX/LimY the initial limits;
	// they must satisfy InitX ≤ LimX ≤ LimY ≤ InitY.
	InitX, LimX, LimY, InitY int64
	// Policy selects the slack-grant policy; nil means demarcation.Exact.
	Policy demarcation.Policy
}

// AddInequality wires demarcation agents for c onto the shells hosting
// the two items' sites and registers the X ≤ Y invariant guarantee.
//
//cmlint:allow deadsurface(the §6.1 declarative demarcation path, whose limits surviving a restart TestToolkitStateDirSurvivesRestart holds)
func (tk *Toolkit) AddInequality(c Inequality) (xAgent, yAgent *demarcation.Agent, err error) {
	if !tk.deployed {
		return nil, nil, fmt.Errorf("core: AddInequality requires a deployed toolkit")
	}
	if !(c.InitX <= c.LimX && c.LimX <= c.LimY && c.LimY <= c.InitY) {
		return nil, nil, fmt.Errorf("core: initial values violate X <= Lx <= Ly <= Y (%d, %d, %d, %d)",
			c.InitX, c.LimX, c.LimY, c.InitY)
	}
	xSite, ok := tk.spec.SiteOf(c.X)
	if !ok {
		return nil, nil, fmt.Errorf("core: no site for item %s", c.X)
	}
	ySite, ok := tk.spec.SiteOf(c.Y)
	if !ok {
		return nil, nil, fmt.Errorf("core: no site for item %s", c.Y)
	}
	xShell, ok := tk.ShellOfSite(xSite)
	if !ok {
		return nil, nil, fmt.Errorf("core: no shell hosts site %s", xSite)
	}
	yShell, ok := tk.ShellOfSite(ySite)
	if !ok {
		return nil, nil, fmt.Errorf("core: no shell hosts site %s", ySite)
	}
	if xShell.ID() == yShell.ID() {
		return nil, nil, fmt.Errorf("core: demarcation needs the two items on different shells")
	}
	// The values and limits live as CM-private items beside the
	// constrained items, so a durable shell journals them; agents whose
	// shell restored them keep that position through the Init below —
	// re-running the deployment's initialization after a crash must not
	// resurrect slack a side already granted away.
	for base, site := range map[string]string{"V_" + c.X: xSite, "L_" + c.X: xSite, "V_" + c.Y: ySite, "L_" + c.Y: ySite} {
		if _, dup := tk.spec.Private[base]; !dup {
			tk.spec.Private[base] = site
		}
	}
	xAgent = demarcation.NewAgent(xShell, xSite, yShell.ID(), data.Item(c.X), data.Item("V_"+c.X), data.Item("L_"+c.X), true, c.Policy)
	yAgent = demarcation.NewAgent(yShell, ySite, xShell.ID(), data.Item(c.Y), data.Item("V_"+c.Y), data.Item("L_"+c.Y), false, c.Policy)
	xAgent.Init(c.InitX, c.LimX)
	yAgent.Init(c.InitY, c.LimY)
	tk.AddGuarantee(demarcation.Guarantee(c.X, c.Y), xSite, ySite)
	return xAgent, yAgent, nil
}

// UseSpec merges a hand-written strategy specification into the
// deployment: its rules, CM-private items and guarantee declarations.
// This is the fully config-driven path — the spec file that cmd/cmshell
// consumes works here unchanged — usable alongside or instead of AddCopy.
// Must be called before Deploy; the spec's sites must be declared through
// AddSite (they are checked at Deploy).
//
//cmlint:allow deadsurface(the config-driven path of DESIGN §6, held by TestUseSpecConfigDriven)
func (tk *Toolkit) UseSpec(spec *rule.Spec) error {
	if tk.deployed {
		return fmt.Errorf("core: deployment already built")
	}
	tk.userSpecs = append(tk.userSpecs, spec)
	return nil
}

// mergeUserSpecs folds UseSpec contributions into the deployment spec.
func (tk *Toolkit) mergeUserSpecs() error {
	for _, spec := range tk.userSpecs {
		for base, site := range spec.Private {
			if prev, dup := tk.spec.Private[base]; dup && prev != site {
				return fmt.Errorf("core: private item %s declared at both %s and %s", base, prev, site)
			}
			tk.spec.Private[base] = site
		}
		tk.spec.Rules = append(tk.spec.Rules, spec.Rules...)
		for _, src := range spec.Guarantees {
			g, err := guarantee.Parse(src)
			if err != nil {
				return fmt.Errorf("core: guarantee %q: %w", src, err)
			}
			tk.AddGuarantee(g, guaranteeSites(tk.spec, src)...)
		}
	}
	return nil
}

// guaranteeSites best-effort extracts the sites a declared guarantee
// involves by resolving the item bases named in its arguments.
func guaranteeSites(spec *rule.Spec, src string) []string {
	seen := map[string]bool{}
	var out []string
	fields := strings.FieldsFunc(src, func(r rune) bool {
		return !(r == '_' || r == '-' ||
			('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9'))
	})
	for _, f := range fields {
		if site, ok := spec.SiteOf(f); ok && !seen[site] {
			seen[site] = true
			out = append(out, site)
		}
	}
	return out
}

// Referential declares the weakened referential-integrity constraint of
// Section 6.2: every item of family Ref must have a matching item of
// family Target within Period (the sweep interval).
type Referential struct {
	Ref, Target string
	// Period is the sweep interval; zero means daily.
	Period time.Duration
	// ReportOnly monitors instead of enforcing (the fallback when the
	// referencing database offers no delete interface).
	ReportOnly bool
}

// AddReferential wires a sweep strategy for c onto the shell hosting the
// referencing site and registers the exists-within guarantee.  Called
// after Deploy; the returned sweeper is already started, and Toolkit.Stop
// stops it with every other sweeper.
//
//cmlint:allow deadsurface(the §6.2 declarative referential path, held by TestAddReferentialSweep)
func (tk *Toolkit) AddReferential(c Referential) (*strategy.Sweeper, error) {
	if !tk.deployed {
		return nil, fmt.Errorf("core: AddReferential requires a deployed toolkit")
	}
	if c.Period <= 0 {
		c.Period = 24 * time.Hour
	}
	refSite, ok := tk.spec.SiteOf(c.Ref)
	if !ok {
		return nil, fmt.Errorf("core: no site for item %s", c.Ref)
	}
	tgtSite, ok := tk.spec.SiteOf(c.Target)
	if !ok {
		return nil, fmt.Errorf("core: no site for item %s", c.Target)
	}
	refIface, ok := tk.Interface(refSite)
	if !ok {
		return nil, fmt.Errorf("core: no translator for site %s", refSite)
	}
	tgtIface, ok := tk.Interface(tgtSite)
	if !ok {
		return nil, fmt.Errorf("core: no translator for site %s", tgtSite)
	}
	sh, ok := tk.ShellOfSite(refSite)
	if !ok {
		return nil, fmt.Errorf("core: no shell hosts site %s", refSite)
	}
	sw := strategy.NewSweeper(sh, tk.clock, c.Period, refIface, c.Ref, tgtIface, c.Target)
	sw.ReportOnly = c.ReportOnly
	sw.Start()
	tk.sweepers = append(tk.sweepers, sw)
	tk.AddGuarantee(sw.Guarantee(c.Period/10), refSite, tgtSite)
	return sw, nil
}

// Reset clears all recorded failures — the Section 5 "system reset" after
// which guarantees involving a logically failed site become valid again.
// The caller is responsible for having actually repaired the sources.
func (tk *Toolkit) Reset() {
	for _, name := range tk.shellNames() {
		tk.shells[name].ClearFailures()
	}
}
