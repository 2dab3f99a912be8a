// Command t2c-bench regenerates the paper's tables and figures on the
// synthetic substrate. Each experiment prints a paper-style table; see
// EXPERIMENTS.md for the paper-vs-measured record.
//
//	t2c-bench -exp table1            # ImageNet PTQ toolkit comparison
//	t2c-bench -exp table2            # CIFAR-10 integer-only model zoo
//	t2c-bench -exp table3            # sparse + low-precision ResNet-50
//	t2c-bench -exp table4            # SSL transfer vs supervised
//	t2c-bench -exp fig3|fig4|fig5    # workflow figures
//	t2c-bench -exp all -scale quick  # everything at test scale
//
// End-to-end and per-layer serving performance is measured by the
// repository benchmark, benchmark/run.sh; the per-instruction modeled
// and measured cost is served live at GET /v1/models/{name}/explain.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"torch2chip/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1..table4, fig3..fig5, ablation, all")
	scale := flag.String("scale", "quick", "compute scale: quick or full")
	outDir := flag.String("out", "bench-out", "output directory for export artifacts (fig5)")
	flag.Parse()

	var sc bench.Scale
	switch *scale {
	case "quick":
		sc = bench.Quick()
	case "full":
		sc = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	run := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Printf("[%s done in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if want("table1") {
		any = true
		run("table1", func() {
			fmt.Print(bench.FormatTable("Table 1 — SynthImageNet PTQ toolkit comparison (ResNet-50s)", bench.Table1(sc)))
		})
	}
	if want("table2") {
		any = true
		run("table2", func() {
			fmt.Print(bench.FormatTable("Table 2 — SynthCIFAR-10 integer-only model zoo", bench.Table2(sc)))
		})
	}
	if want("table3") {
		any = true
		run("table3", func() {
			fmt.Print(bench.FormatTable("Table 3 — sparse + low-precision ResNet-50s", bench.Table3(sc)))
		})
	}
	if want("table4") {
		any = true
		run("table4", func() {
			fmt.Print(bench.FormatTable("Table 4 — SSL (Barlow+XD) transfer vs supervised, 8/8 PTQ", bench.Table4(sc)))
		})
	}
	if want("fig3") {
		any = true
		run("fig3", func() {
			r := bench.Fig3(sc)
			fmt.Printf("Figure 3 — dual-path consistency\n")
			fmt.Printf("train-path vs infer-path max |Δlogit|:  %g\n", r.TrainVsInfer)
			fmt.Printf("train-path vs deploy (MulQuant) max |Δ|: %g\n", r.TrainVsDeploy)
			fmt.Printf("deploy top-1 agreement with train path:  %.1f%%\n", r.Top1Agreement*100)
		})
	}
	if want("fig4") {
		any = true
		run("fig4", func() {
			r := bench.Fig4(sc)
			fmt.Printf("Figure 4 — integer-only ViT attention\n")
			fmt.Printf("quantized ViT, float softmax:  %.2f%%\n", r.FloatAcc*100)
			fmt.Printf("quantized ViT, LUT softmax:    %.2f%%\n", r.LUTAcc*100)
			fmt.Printf("max LUT probability error:     %g\n", r.SoftmaxMaxErr)
		})
	}
	if want("ablation") {
		any = true
		run("ablation", func() { fmt.Print(bench.FormatAblation(bench.AblationFusion(sc))) })
	}
	if want("fig5") {
		any = true
		run("fig5", func() { fmt.Print(bench.FormatFig5(bench.Fig5(sc, *outDir))) })
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
