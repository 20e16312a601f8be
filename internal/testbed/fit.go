package testbed

import (
	"errors"
	"fmt"

	"repro/internal/cnn"
	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/regress"
	"repro/internal/stats"
)

// Paper-scale dataset sizes (Section VII): 119,465 training rows and
// 36,083 test rows across the regression datasets.
const (
	PaperTrainRows = 119465
	PaperTestRows  = 36083
)

// Work caps: the most trials, fit rows and session frames a single
// request or job document may ask for. They sit well above paper scale —
// ten times its dataset sizes, a trial count far beyond what averaging
// monitor noise needs, and a million-user cohort at 200 frames each — so
// every evaluation the paper describes fits, while no count can grow
// without bound. Request.WireSafe and the executor enforce them on the
// wire; job.Spec.Validate (trials, rows) and Job.Validate (a population's
// users × frames) at the door.
const (
	MaxTrainRows = 10 * PaperTrainRows
	MaxTestRows  = 10 * PaperTestRows
	MaxTrials    = 10000

	// MaxSessionFrames caps users × frames: the frames one session
	// request, or one population job in total, simulates.
	MaxSessionFrames = 200_000_000
)

// ErrFit indicates a fitting failure.
var ErrFit = errors.New("testbed: fit failed")

// ModelFitReport summarizes one regression model's fit.
type ModelFitReport struct {
	// Name identifies the model (resource, power, encoder, cnn).
	Name string
	// PaperR2 is the R² the paper reports for this regression.
	PaperR2 float64
	// TrainR2 is the achieved training R².
	TrainR2 float64
	// TestR2 is the held-out R² on the test devices.
	TestR2 float64
	// TestMAPE is the held-out mean absolute percentage error.
	TestMAPE float64
	// CICoverage is the fraction of held-out residuals inside the 95%
	// confidence band (the paper's "95% confidence boundary").
	CICoverage float64
	// TrainRows and TestRows count the observations used.
	TrainRows int
	TestRows  int
}

// FitReport aggregates the four regression fits.
type FitReport struct {
	Resource   ModelFitReport
	Power      ModelFitReport
	Encoder    ModelFitReport
	Complexity ModelFitReport
}

// FitResult carries the re-fitted concrete models ready to plug into the
// latency/energy analysis, plus the fit diagnostics.
type FitResult struct {
	// Resource is the re-fitted Eq. (3).
	Resource device.ResourceModel
	// Power is the re-fitted Eq. (21).
	Power device.PowerModel
	// Encoder is the re-fitted Eq. (10) with the measured γ of Eq. (14).
	Encoder codec.EncoderModel
	// Complexity is the re-fitted Eq. (12).
	Complexity cnn.ComplexityModel
	// Report holds the diagnostics.
	Report FitReport
}

// splitShares apportions the total dataset across the four regressions.
var splitShares = struct {
	resource, power, encoder float64
}{resource: 0.40, power: 0.40, encoder: 0.15}

// FitModels generates synthetic training/test datasets from the bench's
// hidden physics following the paper's protocol — train on devices XR1,
// XR3, XR5, XR6; test on XR2, XR4, XR7 — and fits the four regression
// models. trainRows/testRows control total dataset size (use
// PaperTrainRows/PaperTestRows for paper scale).
func (b *Bench) FitModels(trainRows, testRows int) (*FitResult, error) {
	if trainRows < 400 || testRows < 100 {
		return nil, fmt.Errorf("%w: need at least 400/100 rows, have %d/%d",
			ErrFit, trainRows, testRows)
	}
	out := &FitResult{}

	nRes := int(float64(trainRows) * splitShares.resource)
	nPow := int(float64(trainRows) * splitShares.power)
	nEnc := int(float64(trainRows) * splitShares.encoder)
	nCNN := trainRows - nRes - nPow - nEnc
	tRes := int(float64(testRows) * splitShares.resource)
	tPow := int(float64(testRows) * splitShares.power)
	tEnc := int(float64(testRows) * splitShares.encoder)
	tCNN := testRows - tRes - tPow - tEnc

	if err := b.fitResource(out, nRes, tRes); err != nil {
		return nil, fmt.Errorf("resource: %w", err)
	}
	if err := b.fitPower(out, nPow, tPow); err != nil {
		return nil, fmt.Errorf("power: %w", err)
	}
	if err := b.fitEncoder(out, nEnc, tEnc); err != nil {
		return nil, fmt.Errorf("encoder: %w", err)
	}
	if err := b.fitComplexity(out, nCNN, tCNN); err != nil {
		return nil, fmt.Errorf("cnn complexity: %w", err)
	}
	return out, nil
}

// branchTerms is the 6-term design of the two-branch quadratic shared by
// Eq. (3) and Eq. (21): features x = [fc, fg, ωc].
func branchTerms() []regress.Term {
	return []regress.Term{
		{Name: "wc", Eval: func(x []float64) float64 { return x[2] }},
		{Name: "wc*fc", Eval: func(x []float64) float64 { return x[2] * x[0] }},
		{Name: "wc*fc^2", Eval: func(x []float64) float64 { return x[2] * x[0] * x[0] }},
		{Name: "wg", Eval: func(x []float64) float64 { return 1 - x[2] }},
		{Name: "wg*fg", Eval: func(x []float64) float64 { return (1 - x[2]) * x[1] }},
		{Name: "wg*fg^2", Eval: func(x []float64) float64 { return (1 - x[2]) * x[1] * x[1] }},
	}
}

// sampleClockRows draws (fc, fg, ωc) rows over the given device split and
// measures target through the hidden physics with monitor noise.
func (b *Bench) sampleClockRows(devs []device.Device, n int,
	measure func(dev string, fc, fg, wc float64) (float64, error),
) (xs [][]float64, ys []float64, err error) {
	xs = make([][]float64, 0, n)
	ys = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d := devs[b.rng.Intn(len(devs))]
		fc := 0.8 + (d.CPUGHz-0.8)*b.rng.Float64()
		fg := 0.4 + (d.GPUGHz-0.4+1e-6)*b.rng.Float64()
		if fg <= 0 {
			fg = 0.4
		}
		wc := b.rng.Float64()
		v, err := measure(d.Name, fc, fg, wc)
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, []float64{fc, fg, wc})
		ys = append(ys, b.rng.Jitter(v, b.NoiseRel))
	}
	return xs, ys, nil
}

func (b *Bench) fitResource(out *FitResult, nTrain, nTest int) error {
	measure := func(dev string, fc, fg, wc float64) (float64, error) {
		return b.Physics.TrueResource(dev, fc, fg, wc)
	}
	trainX, trainY, err := b.sampleClockRows(device.TrainDevices(), nTrain, measure)
	if err != nil {
		return err
	}
	testX, testY, err := b.sampleClockRows(device.TestDevices(), nTest, measure)
	if err != nil {
		return err
	}
	fit, err := regress.FitOLS(branchTerms(), trainX, trainY)
	if err != nil {
		return err
	}
	r2, _, mape, err := fit.Evaluate(testX, testY)
	if err != nil {
		return err
	}
	cov, err := fit.WithinCI(testX, testY, 0.95)
	if err != nil {
		return err
	}
	out.Resource = device.ResourceModel{
		CPU:         device.ResourceCoeffs{A0: fit.Coef[0], A2: fit.Coef[1], A1: fit.Coef[2]},
		GPU:         device.ResourceCoeffs{A0: fit.Coef[3], A2: fit.Coef[4], A1: fit.Coef[5]},
		R2:          fit.R2,
		MinResource: 1.0,
	}
	out.Report.Resource = ModelFitReport{
		Name: "resource (Eq. 3)", PaperR2: 0.87,
		TrainR2: fit.R2, TestR2: r2, TestMAPE: mape, CICoverage: cov,
		TrainRows: nTrain, TestRows: nTest,
	}
	return nil
}

func (b *Bench) fitPower(out *FitResult, nTrain, nTest int) error {
	measure := func(dev string, fc, fg, wc float64) (float64, error) {
		return b.Physics.TruePower(dev, fc, fg, wc)
	}
	trainX, trainY, err := b.sampleClockRows(device.TrainDevices(), nTrain, measure)
	if err != nil {
		return err
	}
	testX, testY, err := b.sampleClockRows(device.TestDevices(), nTest, measure)
	if err != nil {
		return err
	}
	fit, err := regress.FitOLS(branchTerms(), trainX, trainY)
	if err != nil {
		return err
	}
	r2, _, mape, err := fit.Evaluate(testX, testY)
	if err != nil {
		return err
	}
	cov, err := fit.WithinCI(testX, testY, 0.95)
	if err != nil {
		return err
	}
	// Eq. (21) sign convention: P = B1·f − B2·f² − B0 per branch.
	out.Power = device.PowerModel{
		CPU:             device.PowerCoeffs{B0: -fit.Coef[0], B1: fit.Coef[1], B2: -fit.Coef[2]},
		GPU:             device.PowerCoeffs{B0: -fit.Coef[3], B1: fit.Coef[4], B2: -fit.Coef[5]},
		R2:              fit.R2,
		BasePowerW:      device.DefaultBasePowerW,
		ThermalFraction: device.DefaultThermalFraction,
		MinPowerW:       0.2,
	}
	out.Report.Power = ModelFitReport{
		Name: "power (Eq. 21)", PaperR2: 0.863,
		TrainR2: fit.R2, TestR2: r2, TestMAPE: mape, CICoverage: cov,
		TrainRows: nTrain, TestRows: nTest,
	}
	return nil
}

// encoderTerms is the 7-term linear design of Eq. (10): features
// x = [ni, nb, bitrate, s, fps, quant].
func encoderTerms() []regress.Term {
	return []regress.Term{
		regress.Intercept(),
		regress.Linear("ni", 0),
		regress.Linear("nb", 1),
		regress.Linear("bitrate", 2),
		regress.Linear("s", 3),
		regress.Linear("fps", 4),
		regress.Linear("quant", 5),
	}
}

func (b *Bench) sampleEncoderRows(n int) (xs [][]float64, ys []float64, err error) {
	xs = make([][]float64, 0, n)
	ys = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p := codec.EncodingParams{
			IFrameInterval: 10 + 50*b.rng.Float64(),
			BFrameInterval: 4 * b.rng.Float64(),
			BitrateMbps:    1 + 9*b.rng.Float64(),
			FrameSizePx2:   300 + 400*b.rng.Float64(),
			FPS:            15 + 45*b.rng.Float64(),
			Quantization:   10 + 35*b.rng.Float64(),
		}
		w, err := b.Physics.TrueEncoderWork(p)
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, []float64{p.IFrameInterval, p.BFrameInterval,
			p.BitrateMbps, p.FrameSizePx2, p.FPS, p.Quantization})
		ys = append(ys, b.rng.Jitter(w, b.NoiseRel))
	}
	return xs, ys, nil
}

func (b *Bench) fitEncoder(out *FitResult, nTrain, nTest int) error {
	trainX, trainY, err := b.sampleEncoderRows(nTrain)
	if err != nil {
		return err
	}
	testX, testY, err := b.sampleEncoderRows(nTest)
	if err != nil {
		return err
	}
	fit, err := regress.FitOLS(encoderTerms(), trainX, trainY)
	if err != nil {
		return err
	}
	r2, _, mape, err := fit.Evaluate(testX, testY)
	if err != nil {
		return err
	}
	cov, err := fit.WithinCI(testX, testY, 0.95)
	if err != nil {
		return err
	}

	// Measure the decode discount γ (Eq. 14): the empirical mean of
	// noisy decode/encode latency ratios on the same device.
	ratios := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		ratios = append(ratios, b.rng.Jitter(trueDecodeDiscount, b.NoiseRel))
	}
	gamma, err := stats.Mean(ratios)
	if err != nil {
		return err
	}

	out.Encoder = codec.EncoderModel{
		Coeffs: codec.EncoderCoeffs{
			K0: fit.Coef[0], Ki: fit.Coef[1], Kb: fit.Coef[2],
			Kbit: fit.Coef[3], Ks: fit.Coef[4], Kfps: fit.Coef[5],
			Kq: fit.Coef[6],
		},
		R2:             fit.R2,
		DecodeDiscount: gamma,
		MinWork:        1,
	}
	out.Report.Encoder = ModelFitReport{
		Name: "encoder (Eq. 10)", PaperR2: 0.79,
		TrainR2: fit.R2, TestR2: r2, TestMAPE: mape, CICoverage: cov,
		TrainRows: nTrain, TestRows: nTest,
	}
	return nil
}

// complexityTerms is the 4-term linear design of Eq. (12): features
// x = [depth, sizeMB, depthScale].
func complexityTerms() []regress.Term {
	return []regress.Term{
		regress.Intercept(),
		regress.Linear("d_cnn", 0),
		regress.Linear("s_cnn", 1),
		regress.Linear("d_scale", 2),
	}
}

func (b *Bench) sampleComplexityRows(n int) (xs [][]float64, ys []float64, err error) {
	catalog := cnn.Catalog()
	xs = make([][]float64, 0, n)
	ys = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		m := catalog[b.rng.Intn(len(catalog))]
		c, err := b.Physics.TrueCNNComplexity(m.Depth, m.SizeMB, m.DepthScale)
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, []float64{float64(m.Depth), m.SizeMB, m.DepthScale})
		ys = append(ys, b.rng.Jitter(c, b.NoiseRel))
	}
	return xs, ys, nil
}

func (b *Bench) fitComplexity(out *FitResult, nTrain, nTest int) error {
	trainX, trainY, err := b.sampleComplexityRows(nTrain)
	if err != nil {
		return err
	}
	testX, testY, err := b.sampleComplexityRows(nTest)
	if err != nil {
		return err
	}
	fit, err := regress.FitOLS(complexityTerms(), trainX, trainY)
	if err != nil {
		return err
	}
	r2, _, mape, err := fit.Evaluate(testX, testY)
	if err != nil {
		return err
	}
	cov, err := fit.WithinCI(testX, testY, 0.95)
	if err != nil {
		return err
	}
	out.Complexity = cnn.ComplexityModel{
		Coeffs: cnn.ComplexityCoeffs{
			C0: fit.Coef[0], Cd: fit.Coef[1], Cs: fit.Coef[2], Cscale: fit.Coef[3],
		},
		R2: fit.R2,
	}
	out.Report.Complexity = ModelFitReport{
		Name: "cnn complexity (Eq. 12)", PaperR2: 0.844,
		TrainR2: fit.R2, TestR2: r2, TestMAPE: mape, CICoverage: cov,
		TrainRows: nTrain, TestRows: nTest,
	}
	return nil
}
