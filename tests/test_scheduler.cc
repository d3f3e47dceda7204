/**
 * @file
 * GuestScheduler contract. The work-stealing scheduler must complete
 * every guest (exactly as many quanta as each demands), produce
 * results that are a pure function of the guest index at any worker
 * count, run the --jobs 1 reference schedule strictly in index order
 * to completion, propagate worker exceptions, and hand quanta valid
 * worker ids. The second half pins the property the quantum model
 * rests on: chopping a CPU run into RunLimits slices — at any
 * quantum, down to single instructions, at the fast and superblock
 * host tiers — retires the identical instruction/cycle/cache/TLB
 * counter stream as one uninterrupted run.
 *
 * The supervision half pins the GuestSupervisor contract (verdicts,
 * retry budgets, deterministic incident histories at any worker
 * count — including several guests failing in the same quantum) and
 * the guest-failure barrier underneath it: support::guestFault
 * unwinds as a structured GuestFailure under a PanicScope, aborts
 * without one, and surfaces as StopReason::kInternalFault from
 * Cpu::run when guest-state corruption trips an internal integrity
 * check mid-quantum.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "isa/assembler.h"
#include "os/cap_allocator.h"
#include "support/logging.h"
#include "support/scheduler.h"
#include "tlb/page_table.h"
#include "workloads/guest_olden.h"

namespace
{

using namespace cheri;

// --- scheduler unit behaviour ----------------------------------------

TEST(GuestScheduler, EveryGuestGetsExactlyItsQuanta)
{
    constexpr std::size_t kGuests = 64;
    for (unsigned jobs : {1u, 4u, 8u}) {
        std::vector<std::atomic<std::uint64_t>> quanta(kGuests);
        support::GuestScheduler scheduler(jobs);
        scheduler.run(kGuests, [&](std::size_t index, unsigned) {
            std::uint64_t nth = ++quanta[index];
            std::uint64_t need = index % 7 + 1;
            return nth < need ? support::QuantumResult::kRunnable
                              : support::QuantumResult::kDone;
        });
        for (std::size_t i = 0; i < kGuests; ++i)
            EXPECT_EQ(quanta[i].load(), i % 7 + 1)
                << "guest " << i << " at jobs " << jobs;
    }
}

TEST(GuestScheduler, PerGuestResultsAreWorkerCountInvariant)
{
    constexpr std::size_t kGuests = 200;
    auto run_fleet = [&](unsigned jobs) {
        std::vector<std::uint64_t> result(kGuests, 0);
        support::GuestScheduler scheduler(jobs);
        scheduler.run(kGuests, [&](std::size_t index, unsigned) {
            // Fold the quantum number into a per-guest hash; the
            // final value depends only on the index and quantum
            // count, never on scheduling order.
            result[index] = result[index] * 6364136223846793005ULL +
                            index + 1442695040888963407ULL;
            return result[index] % 5 != 0
                       ? support::QuantumResult::kRunnable
                       : support::QuantumResult::kDone;
        });
        return result;
    };
    std::vector<std::uint64_t> serial = run_fleet(1);
    EXPECT_EQ(run_fleet(4), serial);
    EXPECT_EQ(run_fleet(8), serial);
}

TEST(GuestScheduler, SerialScheduleRunsEachGuestToCompletionInOrder)
{
    std::vector<std::pair<std::size_t, std::uint64_t>> events;
    std::vector<std::uint64_t> seen(10, 0);
    support::GuestScheduler scheduler(1);
    scheduler.run(10, [&](std::size_t index, unsigned worker) {
        EXPECT_EQ(worker, 0u);
        events.emplace_back(index, ++seen[index]);
        return seen[index] < 3 ? support::QuantumResult::kRunnable
                               : support::QuantumResult::kDone;
    });
    ASSERT_EQ(events.size(), 30u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].first, i / 3);
        EXPECT_EQ(events[i].second, i % 3 + 1);
    }
}

TEST(GuestScheduler, WorkerIdsStayBelowJobCount)
{
    for (unsigned jobs : {1u, 3u, 6u}) {
        std::atomic<bool> bad{false};
        support::GuestScheduler scheduler(jobs);
        scheduler.run(100, [&](std::size_t, unsigned worker) {
            if (worker >= jobs)
                bad = true;
            return support::QuantumResult::kDone;
        });
        EXPECT_FALSE(bad.load()) << "jobs " << jobs;
    }
}

TEST(GuestScheduler, QuantumExceptionPropagates)
{
    for (unsigned jobs : {1u, 4u}) {
        support::GuestScheduler scheduler(jobs);
        EXPECT_THROW(
            scheduler.run(40,
                          [&](std::size_t index, unsigned) {
                              if (index == 17)
                                  throw std::runtime_error("guest 17");
                              return support::QuantumResult::kDone;
                          }),
            std::runtime_error)
            << "jobs " << jobs;
    }
}

TEST(GuestScheduler, ZeroGuestsIsANoOp)
{
    support::GuestScheduler scheduler(4);
    scheduler.run(0, [&](std::size_t, unsigned) {
        ADD_FAILURE() << "quantum called for an empty fleet";
        return support::QuantumResult::kDone;
    });
}

// --- quantum-boundary CPU behaviour ----------------------------------

std::unique_ptr<core::Machine>
preparedMachine(core::HostTier tier)
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    config.accel.tier = tier;
    auto machine = std::make_unique<core::Machine>(config);
    workloads::loadGuestProgram(*machine,
                                workloads::guestTreeadd(5, 2));
    return machine;
}

/** Parameter: (superblock tier, else the fast tier) x quantum. */
class QuantumBoundary
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{
};

TEST_P(QuantumBoundary, ChoppedRunMatchesUninterruptedRun)
{
    auto [superblocks, quantum] = GetParam();
    core::HostTier tier =
        superblocks ? core::HostTier::kSuperblock : core::HostTier::kFast;

    std::unique_ptr<core::Machine> full = preparedMachine(tier);
    core::RunResult full_done = full->cpu().run(core::RunLimits{});
    ASSERT_EQ(full_done.reason, core::StopReason::kBreak);

    std::unique_ptr<core::Machine> chopped = preparedMachine(tier);
    core::RunLimits slice;
    slice.max_instructions = quantum;
    std::uint64_t quanta = 0;
    core::RunResult last;
    do {
        last = chopped->cpu().run(slice);
        ++quanta;
        ASSERT_LT(quanta, 100000u) << "kernel failed to terminate";
    } while (last.reason == core::StopReason::kInstLimit);
    ASSERT_EQ(last.reason, core::StopReason::kBreak);

    // A quantum smaller than the kernel must actually preempt —
    // at the superblock tier, that includes preemption mid-superblock.
    EXPECT_GT(quanta, 1u);
    EXPECT_EQ(chopped->cpu().gpr(isa::reg::v0),
              full->cpu().gpr(isa::reg::v0));
    EXPECT_EQ(chopped->counters().all(), full->counters().all());
}

INSTANTIATE_TEST_SUITE_P(
    Quanta, QuantumBoundary,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1u, 7u, 100u, 500u)));

// --- scheduler x fork integration ------------------------------------

TEST(GuestScheduler, ForkedFleetCountersAreWorkerCountInvariant)
{
    workloads::GuestProgram prog = workloads::guestTreeadd(5, 2);
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    core::Machine parent(config);
    workloads::loadGuestProgram(parent, prog);

    constexpr std::size_t kGuests = 24;
    auto serve = [&](unsigned jobs) {
        std::vector<std::unique_ptr<core::Machine>> fleet(kGuests);
        std::vector<std::uint64_t> insts(kGuests, 0);
        support::GuestScheduler scheduler(jobs);
        scheduler.run(kGuests, [&](std::size_t index, unsigned) {
            if (!fleet[index])
                fleet[index] = parent.fork();
            core::RunLimits slice;
            slice.max_instructions = 101 + index % 13;
            core::RunResult r = fleet[index]->cpu().run(slice);
            if (r.reason == core::StopReason::kInstLimit)
                return support::QuantumResult::kRunnable;
            EXPECT_EQ(r.reason, core::StopReason::kBreak);
            EXPECT_EQ(fleet[index]->cpu().gpr(isa::reg::v0),
                      prog.expected_checksum);
            insts[index] = fleet[index]->cpu().totalInstructions();
            fleet[index].reset();
            return support::QuantumResult::kDone;
        });
        return insts;
    };
    std::vector<std::uint64_t> serial = serve(1);
    for (std::uint64_t count : serial)
        EXPECT_NE(count, 0u);
    EXPECT_EQ(serve(4), serial);
}

// --- the guest-failure barrier ---------------------------------------

TEST(GuestFailureBarrier, ScopedGuestFaultThrowsStructuredFailure)
{
    try {
        support::PanicScope barrier;
        support::guestFault("testsys", "bad index %d", 42);
        FAIL() << "guestFault returned";
    } catch (const support::GuestFailure &failure) {
        EXPECT_EQ(failure.subsystem(), "testsys");
        EXPECT_EQ(failure.message(), "bad index 42");
        EXPECT_NE(std::string(failure.what()).find("bad index 42"),
                  std::string::npos);
    }
}

TEST(GuestFailureBarrier, ScopeNestsAndEndsWithItsBlock)
{
    EXPECT_FALSE(support::PanicScope::active());
    {
        support::PanicScope outer;
        EXPECT_TRUE(support::PanicScope::active());
        {
            support::PanicScope inner;
            EXPECT_TRUE(support::PanicScope::active());
        }
        EXPECT_TRUE(support::PanicScope::active());
    }
    EXPECT_FALSE(support::PanicScope::active());
}

TEST(GuestFailureBarrier, UnscopedGuestFaultStillAborts)
{
    // Outside a PanicScope the barrier must not exist: an internal
    // integrity failure with no supervisor on the stack is an
    // emulator bug and dies exactly like panic().
    EXPECT_DEATH(support::guestFault("testsys", "unsupervised"),
                 "panic: testsys: unsupervised");
}

TEST(GuestFailureBarrier, WildTlbFrameStopsRunAsInternalFault)
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    core::Machine machine(config);
    workloads::loadGuestProgram(machine,
                                workloads::guestTreeadd(5, 2));
    core::RunLimits warm;
    warm.max_instructions = 500;
    ASSERT_EQ(machine.cpu().run(warm).reason,
              core::StopReason::kInstLimit);

    // Repoint the hottest cached translation at a frame far beyond
    // DRAM — the kind of guest-state corruption --storm injects. The
    // next access through it must trip the beyond-DRAM integrity
    // check, and under the barrier that must surface as a structured
    // kInternalFault stop instead of aborting the process.
    std::vector<std::uint64_t> vpns = machine.tlb().cachedVpns();
    ASSERT_FALSE(vpns.empty());
    tlb::Pte wild;
    wild.pfn = 0x00FF'FFFFULL;
    ASSERT_TRUE(machine.tlb().corruptEntry(vpns.front(), wild));

    support::PanicScope barrier;
    core::RunResult result = machine.cpu().run(core::RunLimits{});
    ASSERT_EQ(result.reason, core::StopReason::kInternalFault);
    EXPECT_EQ(result.fault.subsystem, "mem");
    EXPECT_NE(result.fault.message.find("beyond DRAM"),
              std::string::npos);
    EXPECT_EQ(result.fault.instructions,
              machine.cpu().totalInstructions());
}

// --- supervision ------------------------------------------------------

using Step = support::GuestSupervisor::Step;

TEST(GuestSupervisor, CleanFleetIsHealthyAtAnyWorkerCount)
{
    for (unsigned jobs : {1u, 4u}) {
        support::GuestSupervisor::Config config;
        config.jobs = jobs;
        support::GuestSupervisor supervisor(config);
        std::vector<std::atomic<std::uint64_t>> quanta(32);
        std::vector<support::GuestOutcome> outcomes =
            supervisor.run(32, [&](std::size_t index, unsigned,
                                   unsigned attempt) {
                EXPECT_EQ(attempt, 0u);
                std::uint64_t nth = ++quanta[index];
                return nth < index % 5 + 1 ? Step::runnable()
                                           : Step::done();
            });
        ASSERT_EQ(outcomes.size(), 32u);
        for (const support::GuestOutcome &outcome : outcomes) {
            EXPECT_EQ(outcome.verdict,
                      support::GuestVerdict::kHealthy);
            EXPECT_EQ(outcome.attempts, 1u);
            EXPECT_TRUE(outcome.incidents.empty());
        }
    }
}

/**
 * Several guests fail in the very same quantum wave (every third
 * guest's first quantum fails, so at jobs 4 multiple failures are in
 * flight concurrently). All incidents must propagate, and the whole
 * outcome vector must be byte-equivalent to the serial reference
 * schedule: verdicts, attempt counts, and per-incident fault strings
 * are a pure function of the guest index.
 */
TEST(GuestSupervisor, SimultaneousFailuresPropagateDeterministically)
{
    constexpr std::size_t kGuests = 96;
    auto run_fleet = [&](unsigned jobs) {
        support::GuestSupervisor::Config config;
        config.jobs = jobs;
        config.retry_budget = 2;
        support::GuestSupervisor supervisor(config);
        return supervisor.run(
            kGuests,
            [&](std::size_t index, unsigned, unsigned attempt) {
                if (index % 3 == 0 && attempt == 0) {
                    return Step::failed(
                        "fault_" + std::to_string(index));
                }
                if (index % 9 == 1) // fails every attempt
                    return Step::failed("hopeless");
                return Step::done();
            });
    };

    std::vector<support::GuestOutcome> serial = run_fleet(1);
    for (std::size_t i = 0; i < kGuests; ++i) {
        const support::GuestOutcome &outcome = serial[i];
        if (i % 9 == 1) {
            EXPECT_EQ(outcome.verdict,
                      support::GuestVerdict::kQuarantined);
            ASSERT_EQ(outcome.incidents.size(), 3u); // budget 2 + 1
            for (unsigned a = 0; a < 3; ++a) {
                EXPECT_EQ(outcome.incidents[a].attempt, a);
                EXPECT_EQ(outcome.incidents[a].fault, "hopeless");
            }
        } else if (i % 3 == 0) {
            EXPECT_EQ(outcome.verdict,
                      support::GuestVerdict::kRecovered);
            EXPECT_EQ(outcome.attempts, 2u);
            ASSERT_EQ(outcome.incidents.size(), 1u);
            EXPECT_EQ(outcome.incidents[0].attempt, 0u);
            EXPECT_EQ(outcome.incidents[0].fault,
                      "fault_" + std::to_string(i));
        } else {
            EXPECT_EQ(outcome.verdict,
                      support::GuestVerdict::kHealthy);
        }
    }

    for (unsigned jobs : {4u, 8u}) {
        std::vector<support::GuestOutcome> parallel =
            run_fleet(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < kGuests; ++i) {
            EXPECT_EQ(parallel[i].verdict, serial[i].verdict)
                << "guest " << i << " at jobs " << jobs;
            EXPECT_EQ(parallel[i].attempts, serial[i].attempts);
            ASSERT_EQ(parallel[i].incidents.size(),
                      serial[i].incidents.size());
            for (std::size_t k = 0; k < serial[i].incidents.size();
                 ++k) {
                EXPECT_EQ(parallel[i].incidents[k].attempt,
                          serial[i].incidents[k].attempt);
                EXPECT_EQ(parallel[i].incidents[k].fault,
                          serial[i].incidents[k].fault);
            }
        }
    }
}

TEST(GuestSupervisor, AttemptBumpIsTheRollbackSignal)
{
    // The quantum sees attempt N until it fails on attempt N; a
    // preemption (runnable) must NOT bump the attempt.
    std::vector<std::pair<unsigned, char>> events;
    support::GuestSupervisor::Config config;
    config.jobs = 1;
    config.retry_budget = 1;
    support::GuestSupervisor supervisor(config);
    unsigned calls = 0;
    std::vector<support::GuestOutcome> outcomes = supervisor.run(
        1, [&](std::size_t, unsigned, unsigned attempt) {
            switch (calls++) {
            case 0:
                events.emplace_back(attempt, 'r');
                return Step::runnable();
            case 1:
                events.emplace_back(attempt, 'f');
                return Step::failed("boom");
            case 2:
                events.emplace_back(attempt, 'r');
                return Step::runnable();
            default:
                events.emplace_back(attempt, 'd');
                return Step::done();
            }
        });
    std::vector<std::pair<unsigned, char>> expected = {
        {0, 'r'}, {0, 'f'}, {1, 'r'}, {1, 'd'}};
    EXPECT_EQ(events, expected);
    EXPECT_EQ(outcomes[0].verdict, support::GuestVerdict::kRecovered);
    EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(GuestSupervisor, IdenticalFaultStreakQuarantinesEarly)
{
    support::GuestSupervisor::Config config;
    config.jobs = 1;
    config.retry_budget = 10;
    config.quarantine_after = 2;
    support::GuestSupervisor supervisor(config);

    // Guest 0 deterministically re-hits the same fault: quarantined
    // after 2 incidents, long before the retry budget. Guest 1
    // alternates faults: the streak never forms, so it burns the
    // whole budget (11 incidents) before quarantine.
    std::vector<support::GuestOutcome> outcomes = supervisor.run(
        2, [&](std::size_t index, unsigned, unsigned attempt) {
            if (index == 0)
                return Step::failed("same_every_time");
            return Step::failed(attempt % 2 == 0 ? "ping" : "pong");
        });
    EXPECT_EQ(outcomes[0].verdict,
              support::GuestVerdict::kQuarantined);
    EXPECT_EQ(outcomes[0].incidents.size(), 2u);
    EXPECT_EQ(outcomes[1].verdict,
              support::GuestVerdict::kQuarantined);
    EXPECT_EQ(outcomes[1].incidents.size(), 11u);
}

/**
 * An os-layer guest fault feeds the quarantine path end to end: a
 * guest whose (simulated) GC handed the allocator a capability from
 * outside its heap re-hits the same CapAllocator guest fault on every
 * attempt. The fault must surface as a caught GuestFailure inside the
 * quantum — never process death — and the deterministic fault streak
 * must end in kQuarantined while the rest of the fleet stays healthy.
 */
TEST(GuestSupervisor, AllocatorCorruptingGuestIsQuarantinedNotFatal)
{
    constexpr std::size_t kGuests = 8;
    support::GuestSupervisor::Config config;
    config.jobs = 1;
    config.retry_budget = 5;
    config.quarantine_after = 2;
    support::GuestSupervisor supervisor(config);
    std::vector<support::GuestOutcome> outcomes = supervisor.run(
        kGuests, [&](std::size_t index, unsigned, unsigned) {
            cap::Capability heap =
                cap::Capability::make(0x10000, 4096, cap::kPermAll);
            os::CapAllocator allocator(heap);
            auto obj = allocator.allocate(64);
            EXPECT_TRUE(obj.has_value());
            // Guest 3's "GC" laundered a foreign capability into its
            // free path; everyone else frees what it allocated.
            cap::Capability victim =
                index == 3 ? cap::Capability::make(0x8000, 64,
                                                   cap::kPermAll)
                           : *obj;
            try {
                support::PanicScope barrier;
                allocator.free(victim);
            } catch (const support::GuestFailure &failure) {
                return Step::failed(failure.subsystem() + ":" +
                                    failure.message());
            }
            return Step::done();
        });
    ASSERT_EQ(outcomes.size(), kGuests);
    for (std::size_t i = 0; i < kGuests; ++i) {
        if (i == 3) {
            EXPECT_EQ(outcomes[i].verdict,
                      support::GuestVerdict::kQuarantined);
            ASSERT_EQ(outcomes[i].incidents.size(), 2u);
            EXPECT_NE(outcomes[i].incidents[0].fault.find(
                          "outside the heap"),
                      std::string::npos);
            EXPECT_EQ(outcomes[i].incidents[0].fault,
                      outcomes[i].incidents[1].fault);
        } else {
            EXPECT_EQ(outcomes[i].verdict,
                      support::GuestVerdict::kHealthy);
            EXPECT_TRUE(outcomes[i].incidents.empty());
        }
    }
}

/**
 * End-to-end supervised serving: a fleet of COW forks where every
 * fourth guest's first attempt gets its hottest TLB entry repointed
 * at a wild frame mid-run. The barrier turns the resulting integrity
 * trip into kInternalFault, the supervisor rolls the guest back to a
 * fresh fork, and the retry completes clean — so every guest ends
 * with the right checksum and the injured ones carry exactly one
 * internal_fault incident. Byte-deterministic at any worker count.
 */
TEST(GuestSupervisor, PoisonedForksRollBackAndRecover)
{
    workloads::GuestProgram prog = workloads::guestTreeadd(5, 2);
    core::MachineConfig machine_config;
    machine_config.dram_bytes = 8 * 1024 * 1024;
    core::Machine parent(machine_config);
    workloads::loadGuestProgram(parent, prog);
    core::RunLimits warm;
    warm.max_instructions = 256;
    ASSERT_EQ(parent.cpu().run(warm).reason,
              core::StopReason::kInstLimit);
    std::uint64_t warm_insts = parent.cpu().totalInstructions();

    constexpr std::size_t kGuests = 32;
    auto serve = [&](unsigned jobs) {
        struct Live
        {
            std::unique_ptr<core::Machine> machine;
            int minted_attempt = -1;
            bool corrupted = false;
        };
        std::vector<Live> live(kGuests);
        std::vector<std::string> results(kGuests);
        support::GuestSupervisor::Config config;
        config.jobs = jobs;
        config.retry_budget = 2;
        support::GuestSupervisor supervisor(config);
        std::vector<support::GuestOutcome> outcomes = supervisor.run(
            kGuests,
            [&](std::size_t index, unsigned, unsigned attempt) {
                Live &guest = live[index];
                if (guest.minted_attempt !=
                    static_cast<int>(attempt)) {
                    guest.machine = parent.fork();
                    guest.minted_attempt =
                        static_cast<int>(attempt);
                    guest.corrupted = false;
                }
                core::Cpu &cpu = guest.machine->cpu();
                bool poison = index % 4 == 0 && attempt == 0;
                if (poison && !guest.corrupted &&
                    cpu.totalInstructions() >= warm_insts + 300) {
                    std::vector<std::uint64_t> vpns =
                        guest.machine->tlb().cachedVpns();
                    EXPECT_FALSE(vpns.empty());
                    tlb::Pte wild;
                    wild.pfn = 0x00FF'FFFFULL;
                    EXPECT_TRUE(guest.machine->tlb().corruptEntry(
                        vpns.front(), wild));
                    guest.corrupted = true;
                }
                core::RunLimits slice;
                slice.max_instructions = 150;
                core::RunResult quantum_result;
                {
                    support::PanicScope barrier;
                    quantum_result = cpu.run(slice);
                }
                switch (quantum_result.reason) {
                case core::StopReason::kInstLimit:
                    return Step::runnable();
                case core::StopReason::kInternalFault:
                    guest.machine.reset();
                    return Step::failed(
                        "internal_fault:" +
                        quantum_result.fault.subsystem);
                case core::StopReason::kBreak:
                    results[index] =
                        cpu.gpr(isa::reg::v0) ==
                                prog.expected_checksum
                            ? "ok"
                            : "bad_checksum";
                    guest.machine.reset();
                    return Step::done();
                default:
                    guest.machine.reset();
                    return Step::failed(core::stopReasonName(
                        quantum_result.reason));
                }
            });
        return std::make_pair(std::move(outcomes),
                              std::move(results));
    };

    auto [outcomes, results] = serve(1);
    for (std::size_t i = 0; i < kGuests; ++i) {
        EXPECT_EQ(results[i], "ok") << "guest " << i;
        if (i % 4 == 0) {
            EXPECT_EQ(outcomes[i].verdict,
                      support::GuestVerdict::kRecovered);
            ASSERT_EQ(outcomes[i].incidents.size(), 1u);
            EXPECT_EQ(outcomes[i].incidents[0].fault,
                      "internal_fault:mem");
        } else {
            EXPECT_EQ(outcomes[i].verdict,
                      support::GuestVerdict::kHealthy);
        }
    }

    auto [outcomes4, results4] = serve(4);
    EXPECT_EQ(results4, results);
    ASSERT_EQ(outcomes4.size(), outcomes.size());
    for (std::size_t i = 0; i < kGuests; ++i) {
        EXPECT_EQ(outcomes4[i].verdict, outcomes[i].verdict);
        EXPECT_EQ(outcomes4[i].attempts, outcomes[i].attempts);
        ASSERT_EQ(outcomes4[i].incidents.size(),
                  outcomes[i].incidents.size());
        for (std::size_t k = 0; k < outcomes[i].incidents.size();
             ++k) {
            EXPECT_EQ(outcomes4[i].incidents[k].fault,
                      outcomes[i].incidents[k].fault);
        }
    }
}

} // namespace
