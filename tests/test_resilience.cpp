// Fault-injection and budget-governed-verification tests: the fault
// connector blocks end to end (duplication, reorder, loss, send timeout,
// crash-restart), the degradation ladder, deadline/memory truncation with
// structured reasons, and check_resilience distinguishing a fault-tolerant
// from a fault-intolerant design.
#include <gtest/gtest.h>

#include "adl/adl.h"
#include "explore/explorer.h"
#include "model/builder.h"
#include "pml/parser.h"
#include "pnp/pnp.h"

namespace pnp {
namespace {

// -- shared fixtures ----------------------------------------------------------

/// The resilient/fragile counter pair of examples/models/*.arch, inline:
/// one message, a forever-listening receiver, and a `received` global whose
/// update is either idempotent (tolerates duplication) or counting (does
/// not). `channel` lets tests swap the connector kind directly.
std::string counter_arch(const std::string& update,
                         const std::string& channel = "fifo(2)",
                         const std::string& sender_mods = "") {
  return "architecture counter {\n"
         "  global received = 0;\n"
         "  component Sender " + sender_mods + " {\n"
         "    behavior { out_data!7,0,0,0,0,0; out_sig?SEND_SUCC,_; }\n"
         "  }\n"
         "  component Receiver {\n"
         "    behavior {\n"
         "      byte v;\n"
         "      do\n"
         "      :: in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_;\n"
         "         in_data?v,_,_,_,_,_; " + update + "\n"
         "      od\n"
         "    }\n"
         "  }\n"
         "  connector Link : " + channel + " {\n"
         "    sender Sender.out via asyn_blocking;\n"
         "    receiver Receiver.in via blocking;\n"
         "  }\n"
         "}\n";
}

SafetyOutcome verify_counter(const std::string& source,
                             std::uint64_t max_states = 2'000'000) {
  Architecture arch = adl::parse_architecture(source);
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  VerifyOptions opt;
  opt.max_states = max_states;
  return check_invariant(m, gen.parse_expr_text("received <= 1"),
                         "received <= 1", opt);
}

// -- fault connector blocks ---------------------------------------------------

TEST(FaultBlocks, DuplicatingFifoBreaksCountingReceiver) {
  const SafetyOutcome out =
      verify_counter(counter_arch("received++", "duplicating_fifo(2)"));
  ASSERT_FALSE(out.passed());
  EXPECT_EQ(out.result.violation->kind,
            explore::ViolationKind::InvariantViolated);
}

TEST(FaultBlocks, DuplicatingFifoToleratedByIdempotentReceiver) {
  EXPECT_TRUE(
      verify_counter(counter_arch("received = 1", "duplicating_fifo(2)"))
          .passed());
}

TEST(FaultBlocks, DroppingFifoCausesNoDeadlockOrDoubleDelivery) {
  // Loss under the busy-polling receive protocol is livelock, never
  // deadlock, and never delivers more than was sent.
  EXPECT_TRUE(
      verify_counter(counter_arch("received++", "dropping_fifo(2)")).passed());
}

TEST(FaultBlocks, ReorderingFifoAllowsOutOfOrderDelivery) {
  // Two messages, a receiver that records the FIRST value it sees, and an
  // end-state invariant "the first delivery was message 1": holds under
  // fifo, fails once the connector may dequeue in any order.
  const auto arch_text = [](const std::string& channel) {
    return "architecture order {\n"
           "  global first = 0;\n"
           "  component Sender {\n"
           "    behavior {\n"
           "      out_data!1,0,0,0,0,0; out_sig?SEND_SUCC,_;\n"
           "      out_data!2,0,0,0,0,0; out_sig?SEND_SUCC,_;\n"
           "    }\n"
           "  }\n"
           "  component Receiver {\n"
           "    behavior {\n"
           "      byte v; byte n;\n"
           "      do\n"
           "      :: n < 2 ->\n"
           "         in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_;\n"
           "         in_data?v,_,_,_,_,_;\n"
           "         do :: first == 0 -> first = v :: first > 0 -> break od;\n"
           "         n++\n"
           "      :: n == 2 -> break\n"
           "      od\n"
           "    }\n"
           "  }\n"
           "  connector Link : " + channel + " {\n"
           "    sender Sender.out via asyn_blocking;\n"
           "    receiver Receiver.in via blocking;\n"
           "  }\n"
           "}\n";
  };
  const auto first_is_one = [&](const std::string& channel) {
    Architecture arch = adl::parse_architecture(arch_text(channel));
    ModelGenerator gen;
    const kernel::Machine m = gen.generate(arch);
    return check_end_invariant(m, gen.parse_expr_text("first == 1"),
                               "first == 1");
  };
  EXPECT_TRUE(first_is_one("fifo(2)").passed());
  EXPECT_FALSE(first_is_one("reordering_fifo(2)").passed());
}

TEST(FaultBlocks, TimeoutRetryReportsSendFailOnFullChannel) {
  // msg1 fills the fifo(1); the receiver never drains it, so msg2 exhausts
  // its retries and the port reports SEND_FAIL instead of spinning.
  const std::string src =
      "architecture timeout {\n"
      "  global failed = 0;\n"
      "  component Sender {\n"
      "    behavior {\n"
      "      out_data!1,0,0,0,0,0; out_sig?SEND_SUCC,_;\n"
      "      out_data!2,0,0,0,0,0; out_sig?SEND_FAIL,_;\n"
      "      failed = 1;\n"
      "    }\n"
      "  }\n"
      "  component Idle { behavior { skip } }\n"
      "  connector Link : fifo(1) {\n"
      "    sender Sender.out via timeout_retry(2);\n"
      "    receiver Idle.in via blocking;\n"
      "  }\n"
      "}\n";
  Architecture arch = adl::parse_architecture(src);
  EXPECT_EQ(arch.attachments()[0].send_kind, SendPortKind::TimeoutRetry);
  EXPECT_EQ(arch.attachments()[0].send_retries, 2);
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  EXPECT_TRUE(check_safety(m).passed());  // no deadlock on the fail path
  EXPECT_TRUE(check_end_invariant(m, gen.parse_expr_text("failed == 1"),
                                  "failed == 1")
                  .passed());
}

TEST(FaultBlocks, CrashRestartRedeliversAndBudgetZeroIsNoop) {
  // A crash between handing the message over and consuming SEND_SUCC makes
  // the restarted sender transmit again (double delivery) or wedge its
  // port mid-rendezvous (deadlock); either way the counting receiver's
  // architecture is not crash-tolerant. Budget 0 disables the fault.
  EXPECT_FALSE(verify_counter(
                   counter_arch("received++", "fifo(2)", "crashes(1)"))
                   .passed());
  EXPECT_TRUE(verify_counter(
                  counter_arch("received++", "fifo(2)", "crashes(0)"))
                  .passed());
}

TEST(FaultBlocks, LossyFifoAcknowledgesOverflowAndMayStillDeliverBoth) {
  // LossyFifo (the paper's section-3.3 block) drops only on OVERFLOW and
  // always acknowledges. Two messages through a capacity-1 lossy queue:
  // the sender never wedges, and when the receiver drains in between, both
  // arrive -- so counting two deliveries is reachable (invariant fails)
  // while the idempotent receiver stays safe. Deadlock checking is on in
  // both runs.
  const std::string two_sender =
      "architecture lossy {\n"
      "  global received = 0;\n"
      "  component Sender {\n"
      "    behavior {\n"
      "      out_data!1,0,0,0,0,0; out_sig?SEND_SUCC,_;\n"
      "      out_data!2,0,0,0,0,0; out_sig?SEND_SUCC,_;\n"
      "    }\n"
      "  }\n"
      "  component Receiver {\n"
      "    behavior {\n"
      "      byte v;\n"
      "      do\n"
      "      :: in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_;\n"
      "         in_data?v,_,_,_,_,_; UPDATE\n"
      "      od\n"
      "    }\n"
      "  }\n"
      "  connector Link : lossy_fifo(1) {\n"
      "    sender Sender.out via asyn_blocking;\n"
      "    receiver Receiver.in via blocking;\n"
      "  }\n"
      "}\n";
  const auto with_update = [&](const std::string& u) {
    std::string s = two_sender;
    s.replace(s.find("UPDATE"), 6, u);
    return s;
  };
  EXPECT_TRUE(verify_counter(with_update("received = 1")).passed());
  const SafetyOutcome counted = verify_counter(with_update("received++"));
  ASSERT_FALSE(counted.passed());
  EXPECT_EQ(counted.result.violation->kind,
            explore::ViolationKind::InvariantViolated);
}

TEST(FaultBlocks, BitstateSearchStillFindsFaultViolations) {
  // Bitstate hashing composes with fault blocks: a violation it reports is
  // a real counterexample.
  Architecture arch = adl::parse_architecture(
      counter_arch("received++", "duplicating_fifo(2)"));
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  explore::Options opt;
  opt.bitstate = true;
  opt.invariant = gen.parse_expr_text("received <= 1").ref;
  opt.invariant_name = "received <= 1";
  const explore::Result r = explore::explore(m, opt);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, explore::ViolationKind::InvariantViolated);
  EXPECT_EQ(r.stats.truncation, explore::TruncationReason::BitstateApprox);
}

// -- budgets and the degradation ladder ---------------------------------------

/// Several independent counters: a state space in the tens of thousands,
/// plenty for truncation tests, with no violations.
model::SystemSpec big_system() {
  using namespace model;
  SystemSpec sys;
  for (int w = 0; w < 4; ++w) {
    ProcBuilder p(sys, "W" + std::to_string(w));
    const LVar i = p.local("i");
    p.finish(seq(do_(alt(seq(guard(p.l(i) < p.k(6)),
                             assign(i, p.l(i) + p.k(1)))),
                     alt(seq(guard(p.l(i) == p.k(6)), break_())))));
    sys.spawn("w" + std::to_string(w), w, {});
  }
  return sys;
}

TEST(Budgets, DeadlineReturnsStructuredPartialResult) {
  const model::SystemSpec sys = big_system();
  const kernel::Machine m(sys);
  explore::Options opt;
  opt.deadline_seconds = 1e-9;  // expires before the first budget check
  const explore::Result r = explore::explore(m, opt);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.truncation, explore::TruncationReason::Deadline);
  EXPECT_GT(r.stats.states_stored, 0u);
  EXPECT_GT(r.stats.approx_memory_bytes, 0u);
  EXPECT_FALSE(r.violation.has_value());  // partial, not spurious
}

TEST(Budgets, MemoryBudgetTruncatesWithReason) {
  const model::SystemSpec sys = big_system();
  const kernel::Machine m(sys);
  explore::Options opt;
  opt.memory_budget_bytes = 1;
  const explore::Result r = explore::explore(m, opt);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.truncation, explore::TruncationReason::MemoryBudget);
}

TEST(Budgets, MaxStatesAndMaxDepthReportDistinctReasons) {
  const model::SystemSpec sys = big_system();
  const kernel::Machine m(sys);
  explore::Options opt;
  opt.max_states = 10;
  EXPECT_EQ(explore::explore(m, opt).stats.truncation,
            explore::TruncationReason::MaxStates);
  explore::Options dopt;
  dopt.max_depth = 2;
  EXPECT_EQ(explore::explore(m, dopt).stats.truncation,
            explore::TruncationReason::MaxDepth);
}

TEST(Budgets, TruncationReasonNamesAreStable) {
  using explore::TruncationReason;
  EXPECT_STREQ(explore::truncation_reason_name(TruncationReason::None),
               "none");
  EXPECT_STREQ(explore::truncation_reason_name(TruncationReason::Deadline),
               "wall-clock deadline exceeded");
  EXPECT_STREQ(
      explore::truncation_reason_name(TruncationReason::MemoryBudget),
      "memory budget exceeded");
}

TEST(Ladder, TruncatedExactSearchDegradesToBitstate) {
  const model::SystemSpec sys = big_system();
  const kernel::Machine m(sys);
  VerifyOptions opt;
  opt.max_states = 10;  // force truncation of the exact stage
  const SafetyOutcome out = check_safety(m, opt);
  ASSERT_TRUE(out.degraded());
  ASSERT_EQ(out.stages.size(), 2u);
  EXPECT_EQ(out.stages[0].name, "exact");
  EXPECT_EQ(out.stages[0].stats.truncation,
            explore::TruncationReason::MaxStates);
  EXPECT_EQ(out.stages[1].name, "bitstate");
  EXPECT_NE(out.report().find("degradation ladder"), std::string::npos);
}

// examples/models/relay_mesh.pml with three items per pipeline instead
// of five: 134,689 states, too many for a 512 KiB exact store.
constexpr const char* kRelayMesh3 = R"(
  chan a1 = [3] of { byte };
  chan a2 = [3] of { byte };
  chan b1 = [3] of { byte };
  chan b2 = [3] of { byte };
  byte tally;
  active proctype SourceA() {
    byte i = 0;
    do :: i < 3 -> a1!i; i++ :: i >= 3 -> break od
  }
  active proctype RelayA() {
    byte v;
    end: do :: a1?v -> a2!v od
  }
  active proctype SinkA() {
    byte v; byte expect = 0;
    do
    :: expect < 3 -> a2?v; assert(v == expect); expect++; tally++
    :: expect >= 3 -> break
    od
  }
  active proctype SourceB() {
    byte i = 0;
    do :: i < 3 -> b1!i; i++ :: i >= 3 -> break od
  }
  active proctype RelayB() {
    byte v;
    end: do :: b1?v -> b2!v od
  }
  active proctype SinkB() {
    byte v; byte expect = 0;
    do
    :: expect < 3 -> b2?v; assert(v == expect); expect++; tally++
    :: expect >= 3 -> break
    od
  }
)";

// The bitstate rung is sized inside the budget the exact rung ran out of:
// its filter (one per swarm worker) stays under the budget, and the rung
// covers the state space instead of stopping at its first budget check on
// a filter eight times the budget.
TEST(Ladder, BitstateRungFitsTheMemoryBudget) {
  const model::SystemSpec sys = pml::parse(kRelayMesh3);
  const kernel::Machine m(sys);
  for (const int threads : {1, 2}) {
    VerifyOptions opt;
    opt.threads = threads;
    opt.memory_budget_bytes = std::uint64_t{512} << 10;
    const SafetyOutcome out = check_safety(m, opt);
    ASSERT_EQ(out.stages.size(), 2u) << out.report();
    EXPECT_EQ(out.stages[0].stats.truncation,
              explore::TruncationReason::MemoryBudget);
    const explore::Stats& bit = out.stages[1].stats;
    EXPECT_LE(bit.store_bytes, opt.memory_budget_bytes) << out.report();
    EXPECT_GT(bit.states_stored, 100'000u) << out.report();
    EXPECT_EQ(bit.truncation, explore::TruncationReason::BitstateApprox)
        << out.report();
    EXPECT_TRUE(out.passed()) << out.report();
  }
}

TEST(Ladder, CompleteSearchDoesNotDegrade) {
  const model::SystemSpec sys = big_system();
  const kernel::Machine m(sys);
  const SafetyOutcome out = check_safety(m);
  EXPECT_TRUE(out.passed());
  EXPECT_FALSE(out.degraded());
  ASSERT_EQ(out.stages.size(), 1u);
  EXPECT_TRUE(out.stages[0].stats.complete);
}

// -- check_resilience ---------------------------------------------------------

ResilienceOptions counter_resilience_options() {
  ResilienceOptions opts;
  opts.invariant_text = "received <= 1";
  return opts;
}

TEST(Resilience, DistinguishesTolerantFromIntolerantDesign) {
  const std::vector<FaultSpec> faults = {
      {FaultKind::MessageDuplication, "Link", 0},
      {FaultKind::MessageReorder, "Link", 0},
      {FaultKind::MessageLoss, "Link", 0},
      {FaultKind::SendTimeout, "Sender.out", 2},
  };
  const Architecture resilient =
      adl::parse_architecture(counter_arch("received = 1"));
  const Architecture fragile =
      adl::parse_architecture(counter_arch("received++"));

  const ResilienceReport ok =
      check_resilience(resilient, faults, counter_resilience_options());
  EXPECT_TRUE(ok.baseline_passed());
  EXPECT_TRUE(ok.all_tolerated());
  EXPECT_NE(ok.report().find("all injected faults tolerated"),
            std::string::npos);

  const ResilienceReport bad =
      check_resilience(fragile, faults, counter_resilience_options());
  EXPECT_TRUE(bad.baseline_passed());  // fault-free design is correct...
  EXPECT_FALSE(bad.all_tolerated());   // ...but not fault-tolerant
  ASSERT_EQ(bad.faults.size(), faults.size());
  EXPECT_FALSE(bad.faults[0].tolerated());  // duplication breaks it
  EXPECT_TRUE(bad.faults[2].tolerated());   // loss is harmless here
  EXPECT_NE(bad.report().find("VULNERABLE"), std::string::npos);
  EXPECT_NE(bad.report().find("message-duplication"), std::string::npos);
}

TEST(Resilience, VariantsReuseComponentModels) {
  // One generator serves baseline + all fault variants: the plug-and-play
  // reuse claim means component models are built once, then reused.
  const Architecture arch =
      adl::parse_architecture(counter_arch("received = 1"));
  const ResilienceReport rep = check_resilience(
      arch, {{FaultKind::MessageDuplication, "Link", 0},
             {FaultKind::MessageLoss, "Link", 0}},
      counter_resilience_options());
  EXPECT_EQ(rep.gen_stats.component_models_built, 2);
  EXPECT_GE(rep.gen_stats.component_models_reused, 4);
  EXPECT_GE(rep.gen_stats.block_models_reused, 1);
}

TEST(Resilience, DefaultFaultSuiteCoversTheWholeDesign) {
  const Architecture arch =
      adl::parse_architecture(counter_arch("received = 1"));
  const std::vector<FaultSpec> suite = default_fault_suite(arch);
  // 3 channel faults on Link + 1 send timeout + 2 crash-restarts.
  ASSERT_EQ(suite.size(), 6u);
  int crash = 0, timeout = 0, channel = 0;
  for (const FaultSpec& f : suite) {
    if (f.kind == FaultKind::CrashRestart) ++crash;
    else if (f.kind == FaultKind::SendTimeout) ++timeout;
    else ++channel;
  }
  EXPECT_EQ(crash, 2);
  EXPECT_EQ(timeout, 1);
  EXPECT_EQ(channel, 3);
}

TEST(Resilience, UnknownTargetRaises) {
  const Architecture arch =
      adl::parse_architecture(counter_arch("received = 1"));
  EXPECT_THROW(check_resilience(arch, {{FaultKind::MessageLoss, "NoSuch", 0}},
                                counter_resilience_options()),
               ModelError);
  EXPECT_THROW(
      check_resilience(arch, {{FaultKind::CrashRestart, "NoSuch", 1}},
                       counter_resilience_options()),
      ModelError);
}

// -- ADL round-trips for the fault vocabulary ---------------------------------

TEST(Adl, ParsesFaultKindsAndCrashBudgets) {
  const Architecture arch = adl::parse_architecture(
      counter_arch("received = 1", "duplicating_fifo(2)", "crashes(3)"));
  EXPECT_EQ(arch.connectors()[0].channel.kind, ChannelKind::DuplicatingFifo);
  EXPECT_EQ(arch.components()[0].max_crashes, 3);
  EXPECT_NE(arch.describe().find("[crashes <= 3]"), std::string::npos);

  EXPECT_EQ(adl::parse_architecture(
                counter_arch("received = 1", "reordering_fifo(2)"))
                .connectors()[0]
                .channel.kind,
            ChannelKind::ReorderingFifo);
  EXPECT_EQ(adl::parse_architecture(
                counter_arch("received = 1", "dropping_fifo(1)"))
                .connectors()[0]
                .channel.kind,
            ChannelKind::DroppingFifo);
}

}  // namespace
}  // namespace pnp
