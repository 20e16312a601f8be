// Command xrtrace runs a multi-frame XR session through the analytical
// framework — with optional thermal throttling, battery drain, and
// mobility — and emits either a frame-indexed CSV trace or a summary.
//
// It is a thin client of the testbed's session workload: the flags build
// one serializable testbed.OpSession request — exactly what a population
// sweep dispatches to its backends — and render the returned summary and
// trace. The CLI and the sweep path therefore cannot drift: they execute
// the same request through the same executor.
//
// Usage:
//
//	xrtrace -frames 600 -device XR6 -mode local -thermal -battery 3640
//	xrtrace -frames 300 -mode remote -mobility -csv > trace.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/device"
	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/session"
	"repro/internal/testbed"
	"repro/internal/wireless"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xrtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("xrtrace", flag.ContinueOnError)
	devName := fs.String("device", "XR6", "device name from Table I")
	mode := fs.String("mode", "local", "inference mode: local or remote")
	size := fs.Float64("size", 500, "frame size (pixel² unit)")
	frames := fs.Int("frames", 300, "session length in frames")
	thermal := fs.Bool("thermal", false, "enable thermal throttling")
	batteryMAh := fs.Float64("battery", 0, "battery capacity in mAh (0 disables)")
	mobile := fs.Bool("mobility", false, "enable random-walk mobility with vertical handoffs")
	csvOut := fs.Bool("csv", false, "emit the full CSV trace instead of a summary")
	seed := fs.Int64("seed", 42, "RNG seed")
	fitted := fs.Bool("fitted", false, "use re-fitted models instead of paper coefficients")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dev, err := device.ByName(*devName)
	if err != nil {
		return err
	}
	var m pipeline.InferenceMode
	switch *mode {
	case "local":
		m = pipeline.ModeLocal
	case "remote":
		m = pipeline.ModeRemote
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	sc, err := pipeline.NewScenario(dev,
		pipeline.WithMode(m),
		pipeline.WithFrameSize(*size),
	)
	if err != nil {
		return err
	}

	// One serializable session request — the same unit of work a
	// population sweep ships to its backends.
	req := testbed.Request{
		Op:       testbed.OpSession,
		Scenario: sc,
		Seed:     *seed,
		Session: &testbed.SessionConfig{
			Frames:       *frames,
			IncludeTrace: true,
		},
	}
	if *fitted {
		req.Fit = &testbed.FitConfig{Seed: *seed, TrainRows: 20000, TestRows: 6000}
	}
	if *thermal {
		th := session.DefaultThermal()
		req.Session.Thermal = &th
	}
	if *batteryMAh > 0 {
		req.Session.BatteryMAh = *batteryMAh
	}
	if *mobile {
		req.Session.Mobility = &testbed.MobilityConfig{
			SpeedMps:       1.4, // walking pace
			StepMs:         50,
			ZoneTechnology: wireless.WiFi5GHz,
			ZoneRadiusM:    40,
			Kind:           mobility.HandoffVertical,
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	meas, err := testbed.NewExecutor(nil).Do(ctx, req)
	if err != nil {
		return err
	}
	sum := meas.Session
	if sum == nil || len(sum.Trace) == 0 {
		return fmt.Errorf("session returned no trace")
	}

	if *csvOut {
		tbl, err := session.TraceTable(sum.Trace)
		if err != nil {
			return err
		}
		return tbl.WriteCSV(out)
	}

	last := sum.Trace[len(sum.Trace)-1]
	fmt.Fprintf(out, "session: %d/%d frames on %s (%s, %s inference)\n",
		sum.Frames, *frames, dev.Name, dev.Model, *mode)
	fmt.Fprintf(out, "  mean latency:   %.1f ms/frame\n", meas.LatencyMs)
	fmt.Fprintf(out, "  total energy:   %.1f mJ (%.1f mJ/frame)\n",
		sum.TotalEnergyMJ, sum.TotalEnergyMJ/float64(sum.Frames))
	if req.Session.Thermal != nil {
		fmt.Fprintf(out, "  thermal:        %d throttled frames, final %.1f °C at %.2f GHz\n",
			sum.ThrottledFrames, last.TempC, last.CPUFreqGHz)
	}
	if req.Session.BatteryMAh > 0 {
		fmt.Fprintf(out, "  battery:        %.1f%% remaining", 100*last.BatterySoC)
		if sum.Depleted > 0 {
			fmt.Fprintf(out, " (DEPLETED at frame %d)", sum.Frames)
		} else if b, err := session.NewBattery(req.Session.BatteryMAh, 3.85); err == nil && sum.TotalEnergyMJ > 0 {
			life := int(b.CapacityMJ / (sum.TotalEnergyMJ / float64(sum.Frames)))
			mins := float64(life) * meas.LatencyMs / 60000
			fmt.Fprintf(out, " (≈%d frames ≈ %.0f min of use per charge)", life, mins)
		}
		fmt.Fprintln(out)
	}
	if req.Session.Mobility != nil {
		fmt.Fprintf(out, "  mobility:       P(HO) ≈ %.3f per %d-frame window\n",
			last.HandoffProb, 30)
	}
	return nil
}
