// Differential suite for the indexed CPU scheduler (DESIGN.md §9).
//
// The indexed scheduler (job slab, per-level ready queues, reserve
// membership lists, id-ordered reserve table) must be observably
// indistinguishable from oracle::ScanCpu (tests/oracle/), a reference
// model that rescans every job and reserve on each decision. Every test builds one deterministic
// operation script, replays it against both schedulers in separate
// engines, and asserts byte-identical run traces, completion orders, and
// sampled state probes — the same production-vs-oracle pattern
// test_flow_table_diff and test_link_diff use.
#include "os/cpu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/scan_cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::os {
namespace {

/// os::Cpu under the oracle's constructor signature.
struct ProdCpu : Cpu {
  ProdCpu(sim::Engine& engine, const CpuConfig& config) : Cpu(engine, "diff", config) {}
};

// --- operation scripts ------------------------------------------------------

struct Op {
  enum class Kind {
    Submit,         // cycles, priority, reserve_slot (-1 = none, -2 = future id)
    Cancel,         // job_slot
    CreateReserve,  // compute/period/hard
    UpdateReserve,  // reserve_slot, compute/period/hard (in-place re-stamp)
    DestroyReserve, // reserve_slot
    Probe,          // sample utilization/runnable/busy counters
  };
  Kind kind;
  TimePoint at;
  std::uint64_t cycles = 0;
  Priority priority = 0;
  int job_slot = -1;
  int reserve_slot = -1;
  ReserveId raw_reserve = kNoReserve;  // for Submit against a not-yet-created id
  Duration compute;
  Duration period;
  bool hard = true;
};

struct Outcome {
  std::vector<Cpu::RunSlice> trace;
  // (time ns, job id) per completion, in callback order.
  std::vector<std::pair<std::int64_t, JobId>> completions;
  std::vector<std::string> probes;
  std::vector<ReserveId> reserves_created;
  std::int64_t final_busy_ns = 0;
  std::int64_t end_time_ns = 0;
  std::size_t leftover_jobs = 0;
};

/// Replays `script` on a fresh engine+cpu and records everything observable.
template <typename Sched>
Outcome run_script(const std::vector<Op>& script, const CpuConfig& config) {
  sim::Engine engine;
  Sched cpu(engine, config);
  cpu.enable_trace(true);

  Outcome out;
  std::vector<JobId> submitted;    // by submit order; slots index into this
  std::vector<ReserveId> created;  // successful creations only

  for (const Op& op : script) {
    engine.at(op.at, [&, op] {
      switch (op.kind) {
        case Op::Kind::Submit: {
          ReserveId reserve = kNoReserve;
          if (op.raw_reserve != kNoReserve) {
            reserve = op.raw_reserve;  // may not exist (yet): resolved lazily
          } else if (op.reserve_slot >= 0 && !created.empty()) {
            reserve = created[static_cast<std::size_t>(op.reserve_slot) % created.size()];
          }
          const JobId id = cpu.submit(
              op.cycles, op.priority,
              [&out, &engine, id_slot = submitted.size()]() mutable {
                // Job ids are sequential and identical across runs; record
                // the slot so the comparison is structural.
                out.completions.emplace_back(engine.now().ns(),
                                             static_cast<JobId>(id_slot));
              },
              reserve);
          submitted.push_back(id);
          break;
        }
        case Op::Kind::Cancel:
          if (!submitted.empty()) {
            cpu.cancel(submitted[static_cast<std::size_t>(op.job_slot) % submitted.size()]);
          }
          break;
        case Op::Kind::CreateReserve: {
          const auto r = cpu.create_reserve({op.compute, op.period, op.hard});
          if (r.ok()) created.push_back(r.value());
          break;
        }
        case Op::Kind::UpdateReserve:
          if (!created.empty()) {
            const auto s = cpu.update_reserve(
                created[static_cast<std::size_t>(op.reserve_slot) % created.size()],
                {op.compute, op.period, op.hard});
            // Admission outcomes are observable too: record them with the probes.
            out.probes.push_back(std::to_string(engine.now().ns()) +
                                 ":update=" + (s.ok() ? "ok" : s.error()));
          }
          break;
        case Op::Kind::DestroyReserve:
          if (!created.empty()) {
            cpu.destroy_reserve(
                created[static_cast<std::size_t>(op.reserve_slot) % created.size()]);
          }
          break;
        case Op::Kind::Probe: {
          std::ostringstream s;
          s << engine.now().ns() << ":util=" << cpu.reserved_utilization()
            << ":runnable=" << cpu.runnable_count() << ":jobs=" << cpu.job_count()
            << ":busy=" << cpu.busy_time().ns();
          for (const ReserveId r : created) {
            s << ":b" << r << "=" << cpu.reserve_budget(r).ns();
          }
          out.probes.push_back(s.str());
          break;
        }
      }
    });
  }

  engine.run();
  out.trace = cpu.trace();
  out.reserves_created = created;
  out.final_busy_ns = cpu.busy_time().ns();
  out.end_time_ns = engine.now().ns();
  out.leftover_jobs = cpu.job_count();
  return out;
}

void expect_identical(const Outcome& indexed, const Outcome& scan,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(indexed.reserves_created, scan.reserves_created);
  EXPECT_EQ(indexed.completions, scan.completions);
  EXPECT_EQ(indexed.probes, scan.probes);
  EXPECT_EQ(indexed.final_busy_ns, scan.final_busy_ns);
  EXPECT_EQ(indexed.end_time_ns, scan.end_time_ns);
  EXPECT_EQ(indexed.leftover_jobs, scan.leftover_jobs);

  ASSERT_EQ(indexed.trace.size(), scan.trace.size());
  for (std::size_t i = 0; i < indexed.trace.size(); ++i) {
    const auto& a = indexed.trace[i];
    const auto& b = scan.trace[i];
    ASSERT_TRUE(a.job == b.job && a.effective_priority == b.effective_priority &&
                a.reserve == b.reserve && a.boosted == b.boosted &&
                a.start == b.start && a.end == b.end)
        << "run-trace slice " << i << " diverges: job " << a.job << "/" << b.job
        << " ep " << a.effective_priority << "/" << b.effective_priority
        << " start " << a.start.ns() << "/" << b.start.ns() << " end "
        << a.end.ns() << "/" << b.end.ns();
  }
}

void run_diff(const std::vector<Op>& script, const CpuConfig& config,
              const std::string& label, std::size_t min_slices = 10) {
  const Outcome indexed = run_script<ProdCpu>(script, config);
  const Outcome scan = run_script<oracle::ScanCpu>(script, config);
  // Guard against a vacuous pass: every script must actually run work.
  EXPECT_GE(indexed.trace.size(), min_slices) << label << ": workload too trivial";
  expect_identical(indexed, scan, label);
}

/// Randomized script generator. Times, costs and priorities are drawn from a
/// seeded engine so every case is reproducible from its seed.
std::vector<Op> random_script(std::uint64_t seed, bool with_reserves,
                              int n_ops, std::int64_t horizon_ns) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> when(0, horizon_ns);
  std::uniform_int_distribution<std::uint64_t> cost(50'000, 4'000'000);  // 50µs..4ms @1GHz
  std::uniform_int_distribution<int> prio(0, 5);   // few levels: force FIFO ties
  std::uniform_int_distribution<int> slot(0, 63);
  std::uniform_int_distribution<int> pct(0, 99);

  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(n_ops));
  if (with_reserves) {
    // A couple of reserves exist from t=0 so early submits can attach.
    for (int i = 0; i < 2; ++i) {
      Op op;
      op.kind = Op::Kind::CreateReserve;
      op.at = TimePoint::zero();
      op.compute = microseconds(300 + 200 * i);
      op.period = milliseconds(2 + i);
      op.hard = i % 2 == 0;
      script.push_back(op);
    }
  }
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    op.at = TimePoint{when(rng)};
    const int roll = pct(rng);
    if (roll < 61) {
      op.kind = Op::Kind::Submit;
      op.cycles = cost(rng);
      op.priority = prio(rng);
      if (with_reserves) {
        const int attach = pct(rng);
        if (attach < 40) {
          op.reserve_slot = slot(rng);  // existing reserve (round-robin)
        } else if (attach < 45) {
          // A reserve id that may only come into existence later — the
          // scan resolves reserves lazily, so attachment must "wake up"
          // when the id is eventually created.
          op.raw_reserve = static_cast<ReserveId>(1 + slot(rng) % 8);
        }
      }
    } else if (roll < 82) {
      op.kind = Op::Kind::Cancel;
      op.job_slot = slot(rng);
    } else if (roll < 86 && with_reserves) {
      op.kind = Op::Kind::CreateReserve;
      op.compute = microseconds(100 + 100 * (slot(rng) % 8));
      op.period = milliseconds(1 + slot(rng) % 5);
      op.hard = pct(rng) < 50;
    } else if (roll < 90 && with_reserves) {
      // In-place re-stamp churn: the control plane's update_reserve must
      // leave both schedulers in lockstep through boundary moves, budget
      // clamps and admission re-checks.
      op.kind = Op::Kind::UpdateReserve;
      op.reserve_slot = slot(rng);
      op.compute = microseconds(100 + 100 * (slot(rng) % 8));
      op.period = milliseconds(1 + slot(rng) % 5);
      op.hard = pct(rng) < 50;
    } else if (roll < 93 && with_reserves) {
      op.kind = Op::Kind::DestroyReserve;
      op.reserve_slot = slot(rng);
    } else {
      op.kind = Op::Kind::Probe;
    }
    script.push_back(op);
  }
  // Stable sort by time keeps same-instant ops in generation order, so both
  // replays schedule them identically.
  std::stable_sort(script.begin(), script.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  return script;
}

CpuConfig quantum_config(Duration quantum) {
  CpuConfig cfg;
  cfg.quantum = quantum;
  return cfg;
}

// --- randomized differential cases ------------------------------------------

TEST(CpuSchedDiff, RandomChurnNoReserves) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto script =
        random_script(seed, /*with_reserves=*/false, 220, milliseconds(60).ns());
    run_diff(script, quantum_config(microseconds(300)),
             "no-reserves seed " + std::to_string(seed));
  }
}

TEST(CpuSchedDiff, RandomChurnWithReserves) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    const auto script =
        random_script(seed, /*with_reserves=*/true, 220, milliseconds(60).ns());
    run_diff(script, quantum_config(microseconds(500)),
             "reserves seed " + std::to_string(seed));
  }
}

TEST(CpuSchedDiff, RandomChurnFifoNoQuantum) {
  CpuConfig cfg;
  cfg.quantum = Duration::max() - Duration{1};  // run-to-completion
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    const auto script =
        random_script(seed, /*with_reserves=*/true, 180, milliseconds(50).ns());
    run_diff(script, cfg, "fifo seed " + std::to_string(seed));
  }
}

// --- directed corner cases ----------------------------------------------------

TEST(CpuSchedDiff, ReserveExhaustionAndReplenishment) {
  // Hard + soft reserves starved against saturating competition: exercises
  // suspension, fall-back-to-base, boundary wakes and multi-period skips.
  std::vector<Op> script;
  auto add = [&script](Op op) { script.push_back(op); };

  Op hard;
  hard.kind = Op::Kind::CreateReserve;
  hard.at = TimePoint::zero();
  hard.compute = microseconds(400);
  hard.period = milliseconds(2);
  hard.hard = true;
  add(hard);

  Op soft = hard;
  soft.compute = microseconds(250);
  soft.period = milliseconds(3);
  soft.hard = false;
  add(soft);

  // Saturating background load at a mid priority.
  for (int i = 0; i < 10; ++i) {
    Op op;
    op.kind = Op::Kind::Submit;
    op.at = TimePoint{milliseconds(i).ns()};
    op.cycles = 3'000'000;  // 3ms
    op.priority = 3;
    add(op);
  }
  // Reserved work that overruns its budget repeatedly.
  for (int i = 0; i < 6; ++i) {
    Op op;
    op.kind = Op::Kind::Submit;
    op.at = TimePoint{(milliseconds(1) * i).ns()};
    op.cycles = 1'500'000;  // 1.5ms >> per-period budget
    op.priority = 1;
    op.reserve_slot = i % 2;
    add(op);
  }
  for (int i = 0; i < 8; ++i) {
    Op probe;
    probe.kind = Op::Kind::Probe;
    probe.at = TimePoint{(milliseconds(3) * i).ns()};
    add(probe);
  }
  std::stable_sort(script.begin(), script.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  run_diff(script, quantum_config(microseconds(500)), "exhaustion");
}

TEST(CpuSchedDiff, SubmitAgainstFutureReserveId) {
  // A job can name a reserve id that is only created later; both schedulers
  // must boost it the instant the reserve appears.
  std::vector<Op> script;

  Op early;
  early.kind = Op::Kind::Submit;
  early.at = TimePoint::zero();
  early.cycles = 4'000'000;  // 4ms
  early.priority = 1;
  early.raw_reserve = 1;  // id 1 does not exist yet
  script.push_back(early);

  Op competitor;
  competitor.kind = Op::Kind::Submit;
  competitor.at = TimePoint::zero();
  competitor.cycles = 4'000'000;
  competitor.priority = 200;  // outranks the orphan job until the boost
  script.push_back(competitor);

  Op create;
  create.kind = Op::Kind::CreateReserve;  // becomes id 1
  create.at = TimePoint{milliseconds(1).ns()};
  create.compute = milliseconds(5);
  create.period = milliseconds(10);
  create.hard = true;
  script.push_back(create);

  Op probe;
  probe.kind = Op::Kind::Probe;
  probe.at = TimePoint{milliseconds(2).ns()};
  script.push_back(probe);

  const Outcome indexed = run_script<ProdCpu>(script, quantum_config(milliseconds(10)));
  const Outcome scan = run_script<oracle::ScanCpu>(script, quantum_config(milliseconds(10)));
  expect_identical(indexed, scan, "future-reserve-id");

  // Semantic check, not just parity: after the reserve appears at 1ms the
  // orphan job preempts the priority-200 competitor (boost band).
  ASSERT_GE(indexed.trace.size(), 3u);
  EXPECT_EQ(indexed.trace[0].job, 2u);  // competitor runs first
  EXPECT_EQ(indexed.trace[1].job, 1u);  // boosted orphan takes over at 1ms
  EXPECT_TRUE(indexed.trace[1].boosted);
  EXPECT_EQ(indexed.trace[1].start.ns(), milliseconds(1).ns());
}

TEST(CpuSchedDiff, QuantumRotationParity) {
  // Many equal-priority jobs under a small quantum: the rotation rank churn
  // must stay in lockstep between the two ready-queue representations.
  std::vector<Op> script;
  for (int i = 0; i < 24; ++i) {
    Op op;
    op.kind = Op::Kind::Submit;
    op.at = TimePoint{(microseconds(40) * i).ns()};
    op.cycles = 900'000 + 37'000 * i;  // slightly uneven: varied finish order
    op.priority = i % 2;               // two contended levels
    script.push_back(op);
  }
  run_diff(script, quantum_config(microseconds(150)), "rotation");
}

TEST(CpuSchedDiff, DestroyReserveMidBoost) {
  std::vector<Op> script;

  Op create;
  create.kind = Op::Kind::CreateReserve;
  create.at = TimePoint::zero();
  create.compute = milliseconds(4);
  create.period = milliseconds(8);
  create.hard = true;
  script.push_back(create);

  Op reserved;
  reserved.kind = Op::Kind::Submit;
  reserved.at = TimePoint::zero();
  reserved.cycles = 5'000'000;
  reserved.priority = 1;
  reserved.reserve_slot = 0;
  script.push_back(reserved);

  Op normal;
  normal.kind = Op::Kind::Submit;
  normal.at = TimePoint::zero();
  normal.cycles = 2'000'000;
  normal.priority = 100;
  script.push_back(normal);

  Op destroy;
  destroy.kind = Op::Kind::DestroyReserve;
  destroy.at = TimePoint{milliseconds(1).ns()};
  destroy.reserve_slot = 0;
  script.push_back(destroy);

  run_diff(script, quantum_config(milliseconds(10)), "destroy-mid-boost",
           /*min_slices=*/3);
}

TEST(CpuSchedDiff, UpdateReserveResizeParity) {
  // A reserved job overruns while its reserve is grown, shrunk (budget
  // clamp) and period-moved in place; the re-stamp must keep both
  // schedulers' slice traces and budget probes in lockstep.
  std::vector<Op> script;

  Op create;
  create.kind = Op::Kind::CreateReserve;
  create.at = TimePoint::zero();
  create.compute = microseconds(400);
  create.period = milliseconds(2);
  create.hard = true;
  script.push_back(create);

  Op reserved;
  reserved.kind = Op::Kind::Submit;
  reserved.at = TimePoint::zero();
  reserved.cycles = 6'000'000;  // 6ms, far past any single budget
  reserved.priority = 1;
  reserved.reserve_slot = 0;
  script.push_back(reserved);

  Op competitor;
  competitor.kind = Op::Kind::Submit;
  competitor.at = TimePoint::zero();
  competitor.cycles = 5'000'000;
  competitor.priority = 150;
  script.push_back(competitor);

  Op grow = create;
  grow.kind = Op::Kind::UpdateReserve;
  grow.at = TimePoint{milliseconds(1).ns()};
  grow.reserve_slot = 0;
  grow.compute = milliseconds(1);  // mid-period grow: extra budget this period
  script.push_back(grow);

  Op shrink = grow;
  shrink.at = TimePoint{milliseconds(3).ns()};
  shrink.compute = microseconds(200);  // shrink below consumption: budget clamps to 0
  script.push_back(shrink);

  Op move = grow;
  move.at = TimePoint{(milliseconds(4) + microseconds(500)).ns()};
  move.compute = microseconds(600);
  move.period = milliseconds(5);  // boundary moves later: replenish heap re-push
  script.push_back(move);

  for (int i = 0; i < 10; ++i) {
    Op probe;
    probe.kind = Op::Kind::Probe;
    probe.at = TimePoint{(milliseconds(1) * i).ns()};
    script.push_back(probe);
  }
  std::stable_sort(script.begin(), script.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  run_diff(script, quantum_config(microseconds(500)), "update-resize",
           /*min_slices=*/4);
}

TEST(CpuSchedDiff, CoincidingBoundariesWithReserveChurn) {
  // Four reserves whose periods (2, 4, 4, 1 ms) end together every 4 ms,
  // under saturating background load. Reserved jobs attach and finish or
  // are cancelled, so the wake moves from reserve to reserve; one reserve
  // is destroyed and one resized mid-period, and a period whose end the
  // clock cannot hold is refused on create and on resize.
  std::vector<Op> script;
  const auto create = [&script](Duration compute, Duration period, bool hard) {
    Op op;
    op.kind = Op::Kind::CreateReserve;
    op.at = TimePoint::zero();
    op.compute = compute;
    op.period = period;
    op.hard = hard;
    script.push_back(op);
  };
  create(microseconds(300), milliseconds(2), true);   // slot 0
  create(microseconds(200), milliseconds(4), false);  // slot 1
  create(microseconds(500), milliseconds(4), true);   // slot 2
  create(microseconds(100), milliseconds(1), true);   // slot 3

  const auto submit = [&script](Duration at, std::uint64_t cycles, Priority priority,
                                int reserve_slot) {
    Op op;
    op.kind = Op::Kind::Submit;
    op.at = TimePoint{at.ns()};
    op.cycles = cycles;
    op.priority = priority;
    op.reserve_slot = reserve_slot;
    script.push_back(op);
  };
  for (int i = 0; i < 10; ++i) submit(milliseconds(2 * i), 3'000'000, 3, -1);
  submit(Duration::zero(), 700'000, 1, 0);
  submit(milliseconds(1), 1'200'000, 1, 2);
  submit(milliseconds(3), 400'000, 1, 1);  // soft: demoted below the load
  submit(milliseconds(5), 350'000, 1, 3);
  submit(milliseconds(9), 900'000, 1, 1);  // submit slot 9: cancelled below
  submit(milliseconds(10), 2'000'000, 1, 0);

  Op overflow_create;
  overflow_create.kind = Op::Kind::CreateReserve;
  overflow_create.at = TimePoint{(milliseconds(2) + microseconds(500)).ns()};
  overflow_create.compute = nanoseconds(1);
  overflow_create.period = Duration::max();
  script.push_back(overflow_create);

  Op destroy;
  destroy.kind = Op::Kind::DestroyReserve;
  destroy.at = TimePoint{(milliseconds(6) + microseconds(500)).ns()};
  destroy.reserve_slot = 1;
  script.push_back(destroy);

  Op resize;
  resize.kind = Op::Kind::UpdateReserve;
  resize.at = TimePoint{(milliseconds(7) + microseconds(300)).ns()};
  resize.reserve_slot = 2;
  resize.compute = microseconds(800);
  resize.period = milliseconds(3);  // the moved boundary (7 ms) is already past
  script.push_back(resize);

  Op cancel;
  cancel.kind = Op::Kind::Cancel;
  cancel.at = TimePoint{(milliseconds(9) + microseconds(500)).ns()};
  cancel.job_slot = 9;
  script.push_back(cancel);

  Op overflow_resize = resize;
  overflow_resize.at = TimePoint{milliseconds(11).ns()};
  overflow_resize.reserve_slot = 0;
  overflow_resize.compute = nanoseconds(1);
  overflow_resize.period = Duration::max();
  script.push_back(overflow_resize);

  for (int i = 0; i <= 16; ++i) {
    Op probe;
    probe.kind = Op::Kind::Probe;
    probe.at = TimePoint{milliseconds(i).ns()};
    script.push_back(probe);
  }
  std::stable_sort(script.begin(), script.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });

  const CpuConfig cfg = quantum_config(microseconds(500));
  const Outcome indexed = run_script<ProdCpu>(script, cfg);
  const Outcome scan = run_script<oracle::ScanCpu>(script, cfg);
  EXPECT_GE(indexed.trace.size(), 10u);
  expect_identical(indexed, scan, "coinciding-boundaries");

  EXPECT_EQ(indexed.reserves_created.size(), 4u);  // the overflowing create is refused
  std::size_t refused_resizes = 0;
  for (const std::string& probe : indexed.probes) {
    if (probe.find("overflows the clock") != std::string::npos) ++refused_resizes;
  }
  EXPECT_EQ(refused_resizes, 1u);
  EXPECT_EQ(indexed.leftover_jobs, 0u);
  std::set<ReserveId> boosted;  // reserves whose jobs ran in the boost band
  for (const Cpu::RunSlice& slice : indexed.trace) {
    if (slice.boosted) boosted.insert(slice.reserve);
  }
  EXPECT_EQ(boosted.size(), 4u);
}

// --- incremental accounting ---------------------------------------------------

TEST(CpuSchedDiff, IncrementalUtilizationMatchesRecomputation) {
  // Create/resize/destroy churn: the production sum must stay bit-identical
  // to the oracle's fresh summation (same admission decisions).
  sim::Engine e_idx;
  sim::Engine e_scan;
  Cpu indexed(e_idx, "idx");
  oracle::ScanCpu scan(e_scan, CpuConfig{});

  std::mt19937_64 rng(7);
  std::vector<ReserveId> live;
  for (int i = 0; i < 200; ++i) {
    if (live.empty() || rng() % 3 != 0) {
      ReserveSpec spec;
      spec.compute = microseconds(100 + static_cast<std::int64_t>(rng() % 900));
      spec.period = milliseconds(10 + static_cast<std::int64_t>(rng() % 90));
      spec.hard = rng() % 2 == 0;
      const auto a = indexed.create_reserve(spec);
      const auto b = scan.create_reserve(spec);
      ASSERT_EQ(a.ok(), b.ok()) << "admission diverged at step " << i;
      if (a.ok()) {
        ASSERT_EQ(a.value(), b.value());
        live.push_back(a.value());
      }
    } else if (rng() % 2 == 0) {
      // In-place resize: admission must agree bit-for-bit with the fresh
      // summation.
      const std::size_t pick = rng() % live.size();
      ReserveSpec spec;
      spec.compute = microseconds(100 + static_cast<std::int64_t>(rng() % 900));
      spec.period = milliseconds(10 + static_cast<std::int64_t>(rng() % 90));
      spec.hard = rng() % 2 == 0;
      const auto a = indexed.update_reserve(live[pick], spec);
      const auto b = scan.update_reserve(live[pick], spec);
      ASSERT_EQ(a.ok(), b.ok()) << "update admission diverged at step " << i;
    } else {
      const std::size_t pick = rng() % live.size();
      indexed.destroy_reserve(live[pick]);
      scan.destroy_reserve(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Bit-identical, not merely close: admission compares against the cap
    // with exact floating-point values.
    ASSERT_EQ(indexed.reserved_utilization(), scan.reserved_utilization())
        << "utilization diverged at step " << i;
  }
  for (const ReserveId id : live) {
    indexed.destroy_reserve(id);
    scan.destroy_reserve(id);
  }
  EXPECT_EQ(indexed.reserved_utilization(), 0.0);
  EXPECT_EQ(scan.reserved_utilization(), 0.0);
}

}  // namespace
}  // namespace aqm::os
