package main

// The correctness oracle for served answers, run after the timed
// phases on a fixed-size sample of distinct answers per mode:
//
//   - full-fidelity answers lie within fullEnvelopeK of a direct
//     solver.SolveSteady of the same request at a tolerance 1000×
//     tighter than the service default;
//   - rc answers lie within their own certified bound_k of that
//     direct full solve;
//   - every batch item agrees with the same request posted on its
//     own.

import (
	"encoding/json"
	"fmt"
	"math"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
)

// fullEnvelopeK is the solver-tolerance envelope on a peak
// temperature: the service solves to a relative residual of 1e-7, which
// moves a peak of a few hundred kelvin by well under a millikelvin.
const fullEnvelopeK = 1e-3

// directPeak solves a request's full-fidelity problem directly at a
// tight tolerance and returns its peak temperature.
func directPeak(req specio.EvalRequest) (float64, error) {
	req.Fidelity = specio.FidelityFull
	ev, err := specio.BuildEval(req)
	if err != nil {
		return 0, err
	}
	res, err := solver.SolveSteady(ev.Problem, solver.Options{
		Tol: 1e-10, MaxIter: 200000, Precond: ev.Precond, Workers: 1,
	})
	if err != nil {
		return 0, err
	}
	peak, _ := ev.FieldStats(res.T)
	return peak, nil
}

// checkFull checks a full-fidelity answer against the direct solve.
func checkFull(req specio.EvalRequest, er specio.EvalResponse) error {
	ref, err := directPeak(req)
	if err != nil {
		return err
	}
	if d := math.Abs(float64(er.PeakT) - ref); !(d <= fullEnvelopeK) {
		return fmt.Errorf("full answer %v K is %.3g K from the direct solve %v K", er.PeakT, d, ref)
	}
	return nil
}

// checkRC checks an rc answer against its certified bound.
func checkRC(req specio.EvalRequest, er specio.EvalResponse) error {
	ref, err := directPeak(req)
	if err != nil {
		return err
	}
	if d := math.Abs(float64(er.PeakT) - ref); !(d <= float64(er.BoundK)+fullEnvelopeK) {
		return fmt.Errorf("rc answer %v K is %.3g K from the full solve %v K, beyond bound %v K", er.PeakT, d, ref, er.BoundK)
	}
	return nil
}

// checkBatchSolo posts each batch item on its own and compares.
func checkBatchSolo(s *serveSys, smp oracleSample) error {
	breq, err := specio.ParseEvalBatch(smp.j.body)
	if err != nil {
		return err
	}
	items, err := breq.Expand()
	if err != nil {
		return err
	}
	for i, item := range items {
		raw, err := s.post(smp.j.node, pathEval, mustJSON(item))
		if err != nil {
			return err
		}
		var er specio.EvalResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			return err
		}
		got := float64(smp.bat.Items[i].PeakT)
		if d := math.Abs(float64(er.PeakT) - got); !(d <= fullEnvelopeK) {
			return fmt.Errorf("batch item %d answered %v K, alone %v K", i, got, er.PeakT)
		}
	}
	return nil
}

// verifySample runs the oracle over the kept sample and returns how
// many answers it checked and the errors of those that failed.
func (s *serveSys) verifySample() (checked int, fails []error) {
	s.mu.Lock()
	samples := map[string][]oracleSample{}
	for k, v := range s.samples {
		samples[k] = append([]oracleSample(nil), v...)
	}
	s.mu.Unlock()
	for _, mode := range []string{"steady", "rc", "batch"} {
		for _, smp := range samples[mode] {
			checked++
			if err := checkAnswer(s, mode, smp); err != nil {
				fails = append(fails, fmt.Errorf("%s: %w", mode, err))
			}
		}
	}
	return checked, fails
}

func checkAnswer(s *serveSys, mode string, smp oracleSample) error {
	if mode == "batch" {
		return checkBatchSolo(s, smp)
	}
	req, err := specio.ParseEval(smp.j.body)
	if err != nil {
		return err
	}
	if mode == "rc" {
		return checkRC(req, smp.eval)
	}
	return checkFull(req, smp.eval)
}
