package eval

import (
	"math"
	"strings"
	"testing"

	"gpsdl/internal/scenario"
)

func TestRenderPlotBasic(t *testing.T) {
	var sb strings.Builder
	xs := []int{4, 5, 6, 7, 8, 9, 10}
	err := RenderPlot(&sb, "test plot", xs, []Series{
		{Label: "up", Marker: 'o', Y: []float64{10, 20, 30, 40, 50, 60, 70}},
		{Label: "flat", Marker: '#', Y: []float64{15, 15, 15, 15, 15, 15, 15}},
	}, PlotConfig{XLabel: "sats", YLabel: "pct"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"test plot", "o up", "# flat", "sats", "pct", "4", "10"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// The rising series must place markers at different rows: the 'o' on
	// the top data row and another 'o' near the bottom.
	lines := strings.Split(out, "\n")
	var rows []int
	for i, line := range lines {
		if strings.ContainsRune(line, 'o') && strings.Contains(line, "|") {
			rows = append(rows, i)
		}
	}
	if len(rows) < 3 {
		t.Errorf("rising series occupies %d rows, want several:\n%s", len(rows), out)
	}
}

func TestRenderPlotValidation(t *testing.T) {
	var sb strings.Builder
	if err := RenderPlot(&sb, "t", nil, []Series{{Y: nil}}, PlotConfig{}); err == nil {
		t.Error("empty x axis accepted")
	}
	if err := RenderPlot(&sb, "t", []int{1, 2}, []Series{{Label: "s", Y: []float64{1}}}, PlotConfig{}); err == nil {
		t.Error("length mismatch accepted")
	}
	nan := math.NaN()
	if err := RenderPlot(&sb, "t", []int{1}, []Series{{Label: "s", Y: []float64{nan}}}, PlotConfig{}); err == nil {
		t.Error("all-NaN series accepted")
	}
}

func TestRenderPlotConstantSeries(t *testing.T) {
	var sb strings.Builder
	err := RenderPlot(&sb, "const", []int{1, 2, 3}, []Series{
		{Label: "c", Marker: 'x', Y: []float64{5, 5, 5}},
	}, PlotConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.ContainsRune(sb.String(), 'x') {
		t.Error("constant series not plotted")
	}
}

func TestPlotFigHelpers(t *testing.T) {
	res := &Result{
		Station: scenario.Table51Stations()[1],
		Rows: []Row{
			{M: 4, Census: Census{Epochs: 10},
				NR:  ArmStats{MeanError: 10, MeanNanos: 1000},
				DLO: ArmStats{MeanError: 11, MeanNanos: 150},
				DLG: ArmStats{MeanError: 11, MeanNanos: 200}},
			{M: 7}, // empty row: plotted as a gap
			{M: 10, Census: Census{Epochs: 10},
				NR:  ArmStats{MeanError: 4, MeanNanos: 1700},
				DLO: ArmStats{MeanError: 5.2, MeanNanos: 300},
				DLG: ArmStats{MeanError: 4.4, MeanNanos: 650}},
		},
	}
	var b51, b52 strings.Builder
	if err := PlotFig51(&b51, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b51.String(), "theta_DLO") {
		t.Errorf("Fig 5.1 plot:\n%s", b51.String())
	}
	if err := PlotFig52(&b52, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b52.String(), "eta_DLG") {
		t.Errorf("Fig 5.2 plot:\n%s", b52.String())
	}
}
