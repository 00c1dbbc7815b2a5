// Command gpsinspect is the offline forensics companion to the flight
// journal: it answers "what happened to this receiver" from a journal
// file or an incident bundle, with no running server.
//
//	gpsinspect info incident-dir/20260809T120000-0001-slo_page-r3
//	gpsinspect timeline -recv 3 flight.gpsj
//	gpsinspect attribute -from 100 flight.gpsj   # χ² budget burn per PRN
//	gpsinspect diff a.gpsj b.gpsj                # determinism check
//	gpsinspect replay flight.gpsj                # bit-identical re-solve
//
// Every subcommand accepts either a journal file or an incident bundle
// directory (the bundle's journal.gpsj is used). A torn tail — the
// expected state after a crash — is reported, never fatal: forensics
// tools must work best on the files that matter most.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"gpsdl/internal/engine"
	"gpsdl/internal/eval"
	"gpsdl/internal/journal"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gpsinspect:", err)
		os.Exit(1)
	}
}

const usage = `usage: gpsinspect <command> [flags] <journal-or-bundle> [...]

commands:
  info       header, coverage and integrity summary
  timeline   per-receiver event timeline (state changes, χ² failures, exclusions)
  attribute  per-satellite share of the χ² budget burn
  diff       compare two journals record by record
  replay     re-solve captured epochs and verify bit-identical fixes
`

func run(w io.Writer, args []string) error {
	if len(args) == 0 {
		fmt.Fprint(w, usage)
		return fmt.Errorf("a command is required")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "info":
		return runInfo(w, rest)
	case "timeline":
		return runTimeline(w, rest)
	case "attribute":
		return runAttribute(w, rest)
	case "diff":
		return runDiff(w, rest)
	case "replay":
		return runReplay(w, rest)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(w, usage)
		return nil
	default:
		fmt.Fprint(w, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseLoad parses a command's flags and loads its n journal or bundle
// arguments. It returns nil results with a nil error for -h, which has
// printed the command's usage.
func parseLoad(fs *flag.FlagSet, args []string, n int) ([]*journal.ScanResult, error) {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	if fs.NArg() != n {
		return nil, fmt.Errorf("%s takes exactly %d journal or bundle path(s), have %d",
			strings.TrimPrefix(fs.Name(), "gpsinspect "), n, fs.NArg())
	}
	rs := make([]*journal.ScanResult, n)
	for i := range rs {
		var err error
		if rs[i], err = load(fs.Arg(i)); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// load scans a journal file, or the journal.gpsj inside an incident
// bundle directory.
func load(path string) (*journal.ScanResult, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		path = filepath.Join(path, "journal.gpsj")
	}
	return journal.ScanFile(path)
}

// recordFilter is the shared -recv/-from/-to selection.
type recordFilter struct {
	recv     int
	from, to uint64
}

func filterFlags(fs *flag.FlagSet) *recordFilter {
	f := &recordFilter{}
	fs.IntVar(&f.recv, "recv", -1, "restrict to one receiver (-1 means all)")
	fs.Uint64Var(&f.from, "from", 0, "first epoch to consider")
	f.to = math.MaxUint64
	fs.Uint64Var(&f.to, "to", math.MaxUint64, "last epoch to consider (inclusive)")
	return f
}

func (f *recordFilter) keep(r *journal.Record) bool {
	if f.recv >= 0 && r.Receiver != f.recv {
		return false
	}
	return r.Epoch >= f.from && r.Epoch <= f.to
}

// reportTear prints the torn-tail verdict a crash leaves behind.
func reportTear(w io.Writer, res *journal.ScanResult) {
	if res.Torn {
		fmt.Fprintf(w, "torn tail: %s at offset %d (all complete frames recovered)\n",
			res.TornReason, res.TornOffset)
	}
}

// ---- info ----

func runInfo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gpsinspect info", flag.ContinueOnError)
	rs, err := parseLoad(fs, args, 1)
	if rs == nil {
		return err
	}
	res := rs[0]
	m := &res.Meta
	fmt.Fprintf(w, "journal: solver=%s seed=%d step=%gs receivers=%d capture_every=%d\n",
		m.Solver, m.Seed, m.Step, m.Receivers, m.CaptureEvery)
	if m.Created != "" {
		fmt.Fprintf(w, "created: %s\n", m.Created)
	}
	if len(m.Stations) > 0 {
		fmt.Fprintf(w, "stations: %s\n", strings.Join(m.Stations, " "))
	}
	fmt.Fprintf(w, "frames: %d record frames, %d sync points, %d records\n",
		res.Frames, len(res.SyncPoints), len(res.Records))
	if len(res.Records) > 0 {
		lo, hi := uint64(math.MaxUint64), uint64(0)
		perRecv := map[int]int{}
		var fixes, coasts, misses, captured, excluded, chi2fail int
		for i := range res.Records {
			r := &res.Records[i]
			if r.Epoch < lo {
				lo = r.Epoch
			}
			if r.Epoch > hi {
				hi = r.Epoch
			}
			perRecv[r.Receiver]++
			switch {
			case r.Has(journal.FlagFix | journal.FlagCoast):
				coasts++
			case r.Has(journal.FlagFix):
				fixes++
			default:
				misses++
			}
			if r.Flags&journal.FlagObs != 0 {
				captured++
			}
			if r.Flags&journal.FlagExcluded != 0 {
				excluded++
			}
			if r.Has(journal.FlagChi2Valid) && !r.Has(journal.FlagChi2Pass) {
				chi2fail++
			}
		}
		fmt.Fprintf(w, "epochs: [%d, %d], %d receivers seen\n", lo, hi, len(perRecv))
		fmt.Fprintf(w, "records: %d fixes, %d coasts, %d misses; %d chi2 failures, %d RAIM exclusions, %d captured obs sets\n",
			fixes, coasts, misses, chi2fail, excluded, captured)
	}
	if len(res.SyncPoints) > 0 {
		sp := res.SyncPoints[len(res.SyncPoints)-1]
		fmt.Fprintf(w, "last sync point: epoch %d after %d frames / %d records\n",
			sp.MaxEpoch, sp.Frames, sp.Records)
	}
	reportTear(w, res)
	return nil
}

// ---- timeline ----

// flagsLabel renders a record's noteworthy flags compactly.
func flagsLabel(r *journal.Record) string {
	var parts []string
	switch {
	case r.Has(journal.FlagFix | journal.FlagCoast):
		parts = append(parts, "coast")
	case r.Has(journal.FlagFix):
		parts = append(parts, "fix")
	default:
		parts = append(parts, "miss")
	}
	if r.Has(journal.FlagChi2Valid) {
		if r.Has(journal.FlagChi2Pass) {
			parts = append(parts, "chi2=pass")
		} else {
			parts = append(parts, "chi2=FAIL")
		}
	}
	if r.Flags&journal.FlagExcluded != 0 {
		parts = append(parts, fmt.Sprintf("excluded=PRN%d", r.ExcludedPRN))
	}
	if r.Flags&journal.FlagSuspect != 0 {
		parts = append(parts, "suspect")
	}
	if r.Flags&journal.FlagObs != 0 {
		parts = append(parts, "obs-captured")
	}
	return strings.Join(parts, " ")
}

// eventful reports whether a record belongs on the default (compressed)
// timeline: anything other than a plain healthy fix.
func eventful(r *journal.Record) bool {
	if r.Flags&(journal.FlagStateChange|journal.FlagExcluded|journal.FlagSuspect|journal.FlagCoast) != 0 {
		return true
	}
	if r.Has(journal.FlagChi2Valid) && !r.Has(journal.FlagChi2Pass) {
		return true
	}
	return r.Flags&journal.FlagFix == 0 // miss
}

func runTimeline(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gpsinspect timeline", flag.ContinueOnError)
	f := filterFlags(fs)
	all := fs.Bool("all", false, "print every record, not just events")
	rs, err := parseLoad(fs, args, 1)
	if rs == nil {
		return err
	}
	res := rs[0]
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "EPOCH\tRECV\tSTATE\tSOLVER\tCHAIN\tEVENT\tRMS\tPDOP\n")
	shown, matched := 0, 0
	for i := range res.Records {
		r := &res.Records[i]
		if !f.keep(r) {
			continue
		}
		matched++
		if !*all && !eventful(r) {
			continue
		}
		shown++
		rms, pdop := "-", "-"
		if r.Has(journal.FlagRMS) {
			rms = fmt.Sprintf("%.2f", r.RMS)
		}
		if r.Has(journal.FlagDOP) {
			pdop = fmt.Sprintf("%.2f", r.PDOP)
		}
		solver := journal.SolverName(r.Solver)
		if solver == "" {
			solver = "-"
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%d\t%s\t%s\t%s\n",
			r.Epoch, r.Receiver, journal.StateName(r.State), solver, r.Chain, flagsLabel(r), rms, pdop)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d of %d matching records shown\n", shown, matched)
	reportTear(w, res)
	return nil
}

// ---- attribute ----

func runAttribute(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gpsinspect attribute", flag.ContinueOnError)
	f := filterFlags(fs)
	top := fs.Int("top", 8, "satellites to rank")
	allEpochs := fs.Bool("all-epochs", false, "attribute over every epoch with residuals, not just chi2 failures")
	rs, err := parseLoad(fs, args, 1)
	if rs == nil {
		return err
	}
	res := rs[0]
	sigma := res.Meta.Sigma
	if sigma <= 0 {
		// Older engines left σ out of the header when the quality
		// layer was off.
		sigma = engine.ChiSquareSigma
	}
	type satBurn struct {
		prn    int
		burn   float64 // Σ (v/σ)² — this satellite's χ² contribution
		worst  float64 // largest |v| seen
		epochs int
	}
	byPRN := map[int]*satBurn{}
	var total float64
	epochs := 0
	for i := range res.Records {
		r := &res.Records[i]
		if !f.keep(r) || len(r.Residuals) == 0 {
			continue
		}
		if !*allEpochs && !(r.Has(journal.FlagChi2Valid) && !r.Has(journal.FlagChi2Pass)) {
			continue
		}
		epochs++
		for _, sr := range r.Residuals {
			sb := byPRN[sr.PRN]
			if sb == nil {
				sb = &satBurn{prn: sr.PRN}
				byPRN[sr.PRN] = sb
			}
			n := (sr.Meters / sigma) * (sr.Meters / sigma)
			sb.burn += n
			total += n
			sb.epochs++
			if v := math.Abs(sr.Meters); v > sb.worst {
				sb.worst = v
			}
		}
	}
	scope := "chi2-failed"
	if *allEpochs {
		scope = "residual-carrying"
	}
	if total == 0 {
		fmt.Fprintf(w, "no %s epochs with residuals in the selection\n", scope)
		reportTear(w, res)
		return nil
	}
	ranked := make([]*satBurn, 0, len(byPRN))
	for _, sb := range byPRN {
		ranked = append(ranked, sb)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].burn != ranked[j].burn {
			return ranked[i].burn > ranked[j].burn
		}
		return ranked[i].prn < ranked[j].prn
	})
	fmt.Fprintf(w, "χ² budget burn over %d %s epochs (σ=%g m):\n", epochs, scope, sigma)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "PRN\tSHARE\tBURN\tWORST RESID\tEPOCHS\n")
	for i, sb := range ranked {
		if i >= *top {
			break
		}
		fmt.Fprintf(tw, "%d\t%.1f%%\t%.1f\t%.2f m\t%d\n",
			sb.prn, 100*sb.burn/total, sb.burn, sb.worst, sb.epochs)
	}
	tw.Flush()
	lead := ranked[0]
	fmt.Fprintf(w, "PRN %d contributed %.0f%% of the χ² budget burn\n",
		lead.prn, 100*lead.burn/total)
	reportTear(w, res)
	return nil
}

// ---- diff ----

// recordKey orders records for the pairwise diff.
type recordKey struct {
	recv  int
	epoch uint64
}

func indexRecords(res *journal.ScanResult) map[recordKey]*journal.Record {
	idx := make(map[recordKey]*journal.Record, len(res.Records))
	for i := range res.Records {
		r := &res.Records[i]
		idx[recordKey{r.Receiver, r.Epoch}] = r
	}
	return idx
}

// recordsEqual compares the full decoded record, bit-level for floats.
func recordsEqual(a, b *journal.Record) bool {
	if a.Flags != b.Flags || a.State != b.State || a.Chain != b.Chain ||
		a.Solver != b.Solver || a.ExcludedPRN != b.ExcludedPRN ||
		a.Pos != b.Pos || a.ClockBias != b.ClockBias ||
		a.RMS != b.RMS || a.PDOP != b.PDOP || a.HDOP != b.HDOP ||
		a.ClockInnov != b.ClockInnov || a.PredBias != b.PredBias ||
		len(a.Residuals) != len(b.Residuals) || len(a.Obs) != len(b.Obs) {
		return false
	}
	for i := range a.Residuals {
		if a.Residuals[i] != b.Residuals[i] {
			return false
		}
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			return false
		}
	}
	return true
}

func runDiff(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gpsinspect diff", flag.ContinueOnError)
	f := filterFlags(fs)
	limit := fs.Int("limit", 10, "differing records to print")
	rs, err := parseLoad(fs, args, 2)
	if rs == nil {
		return err
	}
	a, b := rs[0], rs[1]
	am, bm := metaComparable(a.Meta), metaComparable(b.Meta)
	if am != bm {
		fmt.Fprintf(w, "meta differs:\n  a: %+v\n  b: %+v\n", am, bm)
	}
	ai, bi := indexRecords(a), indexRecords(b)
	keys := make([]recordKey, 0, len(ai))
	for k := range ai {
		keys = append(keys, k)
	}
	for k := range bi {
		if _, ok := ai[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].recv != keys[j].recv {
			return keys[i].recv < keys[j].recv
		}
		return keys[i].epoch < keys[j].epoch
	})
	var onlyA, onlyB, differ, same, shown int
	for _, k := range keys {
		ra, oka := ai[k]
		rb, okb := bi[k]
		if oka && !f.keep(ra) || !oka && !f.keep(rb) {
			continue
		}
		switch {
		case !okb:
			onlyA++
			if shown < *limit {
				fmt.Fprintf(w, "recv %d epoch %d: only in %s\n", k.recv, k.epoch, fs.Arg(0))
				shown++
			}
		case !oka:
			onlyB++
			if shown < *limit {
				fmt.Fprintf(w, "recv %d epoch %d: only in %s\n", k.recv, k.epoch, fs.Arg(1))
				shown++
			}
		case !recordsEqual(ra, rb):
			differ++
			if shown < *limit {
				fmt.Fprintf(w, "recv %d epoch %d differs:\n  a: %s pos=%v rms=%.3f\n  b: %s pos=%v rms=%.3f\n",
					k.recv, k.epoch, flagsLabel(ra), ra.Pos, ra.RMS, flagsLabel(rb), rb.Pos, rb.RMS)
				shown++
			}
		default:
			same++
		}
	}
	fmt.Fprintf(w, "%d records identical, %d differ, %d only in a, %d only in b\n",
		same, differ, onlyA, onlyB)
	reportTear(w, a)
	reportTear(w, b)
	if differ+onlyA+onlyB > 0 {
		return fmt.Errorf("journals differ")
	}
	fmt.Fprintln(w, "journals are record-identical")
	return nil
}

// comparableMeta is the subset of the journal header two runs of the
// same configuration must agree on — the capture timestamp legitimately
// differs, and stations are compared through the records themselves.
type comparableMeta struct {
	Solver       string
	Seed         int64
	Step         float64
	Receivers    int
	Sigma        float64
	CaptureEvery int
	Stations     string
}

func metaComparable(m journal.Meta) comparableMeta {
	return comparableMeta{
		Solver:       m.Solver,
		Seed:         m.Seed,
		Step:         m.Step,
		Receivers:    m.Receivers,
		Sigma:        m.Sigma,
		CaptureEvery: m.CaptureEvery,
		Stations:     strings.Join(m.Stations, " "),
	}
}

// ---- replay ----

func runReplay(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gpsinspect replay", flag.ContinueOnError)
	f := filterFlags(fs)
	verbose := fs.Bool("v", false, "print every replayed epoch")
	rs, err := parseLoad(fs, args, 1)
	if rs == nil {
		return err
	}
	res := rs[0]
	var replayed, mismatches, failures int
	for i := range res.Records {
		r := &res.Records[i]
		if !f.keep(r) || r.Flags&journal.FlagObs == 0 || r.Flags&journal.FlagCoast != 0 {
			continue
		}
		in, err := eval.ReplayInputFromRecord(&res.Meta, r)
		if err != nil {
			return fmt.Errorf("recv %d epoch %d: %w", r.Receiver, r.Epoch, err)
		}
		sv := in.ReplaySolver()
		if sv == nil {
			return fmt.Errorf("recv %d epoch %d: captured solver %q is not replayable", r.Receiver, r.Epoch, in.Solver)
		}
		sol, err := sv.Solve(in.T, in.Obs)
		if err != nil {
			failures++
			fmt.Fprintf(w, "recv %d epoch %d: %s replay failed: %v\n", r.Receiver, r.Epoch, in.Solver, err)
			continue
		}
		replayed++
		if sol.Pos != in.Solution {
			mismatches++
			fmt.Fprintf(w, "recv %d epoch %d: MISMATCH %s: %+v != captured %+v\n",
				r.Receiver, r.Epoch, in.Solver, sol.Pos, in.Solution)
		} else if *verbose {
			fmt.Fprintf(w, "recv %d epoch %d: %s byte-identical (%d sats, err vs truth %.3f m)\n",
				r.Receiver, r.Epoch, in.Solver, len(in.Obs), sol.Pos.DistanceTo(in.Station.Pos))
		}
	}
	reportTear(w, res)
	if replayed == 0 && failures == 0 {
		return fmt.Errorf("no captured observation sets in the selection")
	}
	if mismatches > 0 || failures > 0 {
		return fmt.Errorf("%d of %d captured epochs did not replay bit-identically (%d solve failures)",
			mismatches, replayed, failures)
	}
	fmt.Fprintf(w, "all %d captured epochs replayed bit-identically\n", replayed)
	return nil
}
