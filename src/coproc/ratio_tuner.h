// RatioTuner — the session-level feedback loop between executed joins and
// the ratio optimizer.
//
// The paper picks per-step CPU/GPU ratios from an analytically instantiated
// cost model (Section 4.2). That is the only option for the first run, but
// a session of repeated (identical or similar) joins can do better: after
// each run the tuner folds the measured per-step, per-device timings into
// an OnlineCalibrator, and before the next run it (a) attaches the measured
// table to the JoinSpec so the driver's optimizers re-run on it, and (b) on
// real execution backends replaces the paper's concurrent-device
// composition with the serial-lane one that actually describes a host
// thread pool. Ratios thereby converge from analytic guesses to
// hardware-true assignments — the adaptive re-splitting of follow-on
// systems, driven by the paper's own optimizer.

#ifndef APUJOIN_COPROC_RATIO_TUNER_H_
#define APUJOIN_COPROC_RATIO_TUNER_H_

#include <map>
#include <string>
#include <vector>

#include "coproc/join_driver.h"
#include "cost/online_calibration.h"

namespace apujoin::coproc {

/// Per-session ratio tuner. Not thread-safe; one instance per stream of
/// joins (mirrors core::CoupledJoiner).
class RatioTuner {
 public:
  explicit RatioTuner(cost::TuneMode mode,
                      cost::OnlineCalibratorOptions opts = {});

  /// Prepares `spec` for the next run: attaches the measured table once at
  /// least one run has been absorbed and, on real execution backends,
  /// installs serial-composition ratio overrides re-optimized from the
  /// measured costs. Overrides the caller set explicitly are respected —
  /// the tuner only replaces an override it installed itself. No-op while
  /// mode is kOff or (except for the shared table) before the first
  /// Absorb.
  void Prepare(JoinSpec* spec);

  /// Attaches a cross-session measured-cost table (the join service's
  /// service-wide pool); Prepare forwards it as JoinSpec::shared_costs,
  /// from the very first run — cold-start seeding is its whole point. The
  /// table is owned by the caller and must stay valid (and unmutated while
  /// a join is planning) until replaced; sessions typically point this at
  /// a private snapshot refreshed between runs.
  void set_shared_costs(const cost::OnlineCalibrator* shared) {
    shared_ = shared;
  }
  const cost::OnlineCalibrator* shared_costs() const { return shared_; }

  /// Folds a finished run's measured step timings into the table (kOnce:
  /// first run only) and captures the phase structure for Prepare.
  void Absorb(const JoinReport& report);

  cost::TuneMode mode() const { return mode_; }
  int runs() const { return runs_; }
  const cost::OnlineCalibrator& calibrator() const { return calib_; }

  void Reset();

 private:
  /// Shape of one executed phase, captured from the last absorbed report:
  /// what Prepare needs to re-run the optimizer without re-planning.
  struct PhaseShape {
    std::string phase;
    uint64_t items = 0;              ///< series input size n
    cost::StepCosts unit_costs;      ///< unit costs the run was planned with
    std::vector<double> ratios;      ///< ratios the run actually used
  };

  cost::TuneMode mode_;
  cost::OnlineCalibrator calib_;
  const cost::OnlineCalibrator* shared_ = nullptr;
  std::vector<PhaseShape> shapes_;
  /// Per step: both lanes' unit costs as of the last run that measured
  /// both. Once a step runs whole on one lane the other lane is never
  /// measured again, and comparing the live lane's EWMA against the idle
  /// lane's old sample would flip the step on one slow run; Prepare
  /// compares the lanes only on these same-run values.
  std::map<std::string, cost::StepCost> same_run_;
  /// What Prepare last installed per override slot, so a user-pinned
  /// override (anything else non-empty) is never clobbered.
  std::vector<double> installed_build_;
  std::vector<double> installed_probe_;
  std::vector<double> installed_partition_;
  int runs_ = 0;
};

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_RATIO_TUNER_H_
