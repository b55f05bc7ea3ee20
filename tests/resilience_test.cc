// Unit tests for the federation-resilience primitives: retry policy,
// circuit breaker, replay buffer, the sequenced receive state machine
// in RemoteStreamWrapper, simulator fault injection, and the typed
// WrapperConfig accessors they are configured through.

#include <gtest/gtest.h>

#include "gsn/network/circuit_breaker.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/network/replay_buffer.h"
#include "gsn/network/retry_policy.h"
#include "gsn/network/simulator.h"
#include "gsn/util/rng.h"
#include "gsn/wrappers/wrapper.h"

namespace gsn::network {
namespace {

// ------------------------------------------------------------ RetryPolicy

wrappers::WrapperConfig Config(wrappers::ParamMap params) {
  wrappers::WrapperConfig config;
  config.params = std::move(params);
  return config;
}

TEST(RetryPolicyTest, GrowsExponentiallyAndSaturates) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 1000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.BackoffForAttempt(1, nullptr), 100);
  EXPECT_EQ(policy.BackoffForAttempt(2, nullptr), 200);
  EXPECT_EQ(policy.BackoffForAttempt(3, nullptr), 400);
  EXPECT_EQ(policy.BackoffForAttempt(4, nullptr), 800);
  EXPECT_EQ(policy.BackoffForAttempt(5, nullptr), 1000);  // capped
  EXPECT_EQ(policy.BackoffForAttempt(50, nullptr), 1000);
}

TEST(RetryPolicyTest, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.jitter = 0.2;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Timestamp backoff = policy.BackoffForAttempt(1, &rng);
    EXPECT_GE(backoff, 800);
    EXPECT_LE(backoff, 1200);
  }
}

TEST(RetryPolicyTest, ExhaustedAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_FALSE(policy.Exhausted(2));
  EXPECT_TRUE(policy.Exhausted(3));
  EXPECT_TRUE(policy.Exhausted(4));
}

TEST(RetryPolicyTest, FromConfigOverridesDefaults) {
  auto policy = RetryPolicy::FromConfig(
      Config({{"retry-max-attempts", "5"},
              {"retry-initial-backoff", "250ms"},
              {"retry-max-backoff", "10s"},
              {"retry-multiplier", "3"},
              {"retry-jitter", "0"}}),
      RetryPolicy{});
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->max_attempts, 5);
  EXPECT_EQ(policy->initial_backoff_micros, 250 * kMicrosPerMilli);
  EXPECT_EQ(policy->max_backoff_micros, 10 * kMicrosPerSecond);
  EXPECT_EQ(policy->multiplier, 3.0);
  EXPECT_EQ(policy->jitter, 0.0);
}

TEST(RetryPolicyTest, FromConfigKeepsDefaultsWhenAbsent) {
  RetryPolicy defaults;
  defaults.max_attempts = 42;
  auto policy = RetryPolicy::FromConfig(Config({}), defaults);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->max_attempts, 42);
}

TEST(RetryPolicyTest, FromConfigErrorsNameTheKey) {
  auto bad = RetryPolicy::FromConfig(
      Config({{"retry-max-attempts", "zero"}}), RetryPolicy{});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("retry-max-attempts"),
            std::string::npos)
      << bad.status().ToString();

  EXPECT_FALSE(RetryPolicy::FromConfig(Config({{"retry-max-attempts", "0"}}),
                                       RetryPolicy{})
                   .ok());
  EXPECT_FALSE(RetryPolicy::FromConfig(Config({{"retry-jitter", "1.5"}}),
                                       RetryPolicy{})
                   .ok());
  EXPECT_FALSE(RetryPolicy::FromConfig(Config({{"retry-multiplier", "0.5"}}),
                                       RetryPolicy{})
                   .ok());
  // max < initial is inconsistent.
  EXPECT_FALSE(RetryPolicy::FromConfig(
                   Config({{"retry-initial-backoff", "10s"},
                           {"retry-max-backoff", "1s"}}),
                   RetryPolicy{})
                   .ok());
}

// --------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterThresholdFailures) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.StateAt(0), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.RecordFailure(10));
  EXPECT_FALSE(breaker.RecordFailure(20));
  EXPECT_TRUE(breaker.AllowSend(20));
  EXPECT_TRUE(breaker.RecordFailure(30));  // third failure: open edge
  EXPECT_EQ(breaker.StateAt(30), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowSend(30));
  EXPECT_EQ(breaker.opened_total(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(1);
  breaker.RecordFailure(2);
  EXPECT_FALSE(breaker.RecordSuccess());  // already closed: no edge
  breaker.RecordFailure(3);
  breaker.RecordFailure(4);
  EXPECT_EQ(breaker.StateAt(4), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenIsDerivedFromElapsedTime) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);
  ASSERT_TRUE(breaker.RecordFailure(100));
  EXPECT_EQ(breaker.StateAt(500), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowSend(500));
  EXPECT_EQ(breaker.StateAt(1100), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowSend(1100));  // probe round may flow
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRearms) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);
  ASSERT_TRUE(breaker.RecordFailure(0));
  ASSERT_EQ(breaker.StateAt(1000), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.RecordFailure(1000));  // probe failed: re-open edge
  EXPECT_EQ(breaker.StateAt(1500), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.opened_total(), 2);
}

TEST(CircuitBreakerTest, SuccessClosesFromOpenAndHalfOpen) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);
  ASSERT_TRUE(breaker.RecordFailure(0));
  EXPECT_TRUE(breaker.RecordSuccess());  // recovery edge
  EXPECT_EQ(breaker.StateAt(0), CircuitBreaker::State::kClosed);

  ASSERT_TRUE(breaker.RecordFailure(10));
  ASSERT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.RecordSuccess());
  EXPECT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kClosed),
               "closed");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kOpen),
               "open");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kHalfOpen),
               "half-open");
}

// ----------------------------------------------------------- ReplayBuffer

TEST(ReplayBufferTest, StoresAndServesBySequence) {
  ReplayBuffer buffer(1024);
  buffer.Put(1, "one");
  buffer.Put(2, "two");
  ASSERT_NE(buffer.Get(1), nullptr);
  EXPECT_EQ(*buffer.Get(1), "one");
  EXPECT_EQ(*buffer.Get(2), "two");
  EXPECT_EQ(buffer.Get(3), nullptr);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.bytes(), 6u + 2 * ReplayBuffer::kEntryOverheadBytes);
  EXPECT_EQ(buffer.oldest_seq(), 1u);
  EXPECT_EQ(buffer.newest_seq(), 2u);
}

TEST(ReplayBufferTest, EvictsOldestWhenOverBudget) {
  // Room for two 4-byte entries and their bookkeeping, not three.
  const size_t budget = 10 + 2 * ReplayBuffer::kEntryOverheadBytes;
  ReplayBuffer buffer(budget);
  buffer.Put(1, "aaaa");  // 4 payload bytes
  buffer.Put(2, "bbbb");  // 8 total
  buffer.Put(3, "cccc");  // 12 -> evict seq 1
  EXPECT_EQ(buffer.Get(1), nullptr);
  EXPECT_NE(buffer.Get(2), nullptr);
  EXPECT_NE(buffer.Get(3), nullptr);
  EXPECT_EQ(buffer.evicted_total(), 1);
  EXPECT_LE(buffer.bytes(), budget);
}

TEST(ReplayBufferTest, NeverEvictsTheOnlyEntry) {
  ReplayBuffer buffer(4);
  buffer.Put(7, std::string(100, 'x'));  // far over budget, kept anyway
  ASSERT_NE(buffer.Get(7), nullptr);
  EXPECT_EQ(buffer.size(), 1u);
}

// ----------------------------------------------- RemoteStreamWrapper dedup

StreamElement Element(int64_t seq) {
  StreamElement e;
  e.timed = seq * 100;
  e.values = {Value::Int(seq)};
  return e;
}

Schema SeqSchema() {
  Schema schema;
  schema.AddField("seq", DataType::kInt);
  return schema;
}

TEST(RemoteStreamWrapperTest, AdmitsInOrder) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  EXPECT_EQ(wrapper.Push(Element(1), 1).admitted, 1);
  EXPECT_EQ(wrapper.Push(Element(2), 2).admitted, 1);
  auto polled = wrapper.Poll(kMicrosPerSecond);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 2u);
  EXPECT_EQ(wrapper.admitted_count(), 2);
  EXPECT_EQ(wrapper.expected_sequence(), 3u);
}

TEST(RemoteStreamWrapperTest, ParksOutOfOrderAndDrainsWhenGapFills) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  const auto parked = wrapper.Push(Element(3), 3);
  EXPECT_EQ(parked.admitted, 0);
  EXPECT_TRUE(parked.gap_opened);
  EXPECT_EQ(wrapper.Push(Element(2), 2).admitted, 0);  // still behind 1
  const auto filled = wrapper.Push(Element(1), 1);
  EXPECT_EQ(filled.admitted, 3);  // 1 plus both parked successors
  EXPECT_EQ(wrapper.expected_sequence(), 4u);
  EXPECT_EQ(wrapper.admitted_count(), 3);
}

TEST(RemoteStreamWrapperTest, DropsDuplicates) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  wrapper.Push(Element(1), 1);
  EXPECT_TRUE(wrapper.Push(Element(1), 1).duplicate);
  wrapper.Push(Element(3), 3);  // parked
  EXPECT_TRUE(wrapper.Push(Element(3), 3).duplicate);  // parked dup
  EXPECT_EQ(wrapper.duplicate_count(), 2);
  EXPECT_EQ(wrapper.admitted_count(), 1);
}

TEST(RemoteStreamWrapperTest, LegacyUnsequencedDeliveriesAdmitDirectly) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  EXPECT_EQ(wrapper.Push(Element(1), 0).admitted, 1);
  EXPECT_EQ(wrapper.Push(Element(2), 0).admitted, 1);
  EXPECT_EQ(wrapper.expected_sequence(), 1u);  // sequencing untouched
}

TEST(RemoteStreamWrapperTest, MissingRangesFromGapsAndTip) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  wrapper.Push(Element(1), 1);
  wrapper.Push(Element(4), 4);
  wrapper.Push(Element(7), 7);
  auto missing = wrapper.MissingRanges();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], (SeqRange{2, 3}));
  EXPECT_EQ(missing[1], (SeqRange{5, 6}));

  // A tip announces that sequences up to 10 exist: the tail becomes a
  // gap too.
  wrapper.ObserveTip(10);
  missing = wrapper.MissingRanges();
  ASSERT_EQ(missing.size(), 3u);
  EXPECT_EQ(missing[2], (SeqRange{8, 10}));
  EXPECT_EQ(wrapper.max_seen_sequence(), 10u);

  // A stale tip never lowers the high-water mark.
  wrapper.ObserveTip(5);
  EXPECT_EQ(wrapper.max_seen_sequence(), 10u);
}

TEST(RemoteStreamWrapperTest, MissingRangesRespectsCap) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  for (uint64_t seq = 2; seq <= 20; seq += 2) {
    wrapper.Push(Element(static_cast<int64_t>(seq)), seq);
  }
  EXPECT_EQ(wrapper.MissingRanges(3).size(), 3u);
}

TEST(RemoteStreamWrapperTest, AbandonAdmitsParkedAndCountsAbsent) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  wrapper.Push(Element(1), 1);
  wrapper.Push(Element(3), 3);  // 2 missing
  wrapper.Push(Element(6), 6);  // 4, 5 missing
  // Give up through 5: seq 2, 4, 5 are lost; parked 3 is admitted, and
  // 6 drains behind it.
  EXPECT_EQ(wrapper.AbandonMissingThrough(5), 3);
  EXPECT_EQ(wrapper.abandoned_count(), 3);
  EXPECT_EQ(wrapper.expected_sequence(), 7u);
  auto polled = wrapper.Poll(kMicrosPerSecond);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 3u);  // 1, 3, 6
}

TEST(RemoteStreamWrapperTest, RebindResetsSequencingKeepsQueue) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer-a", "sensor");
  wrapper.Push(Element(1), 1);
  wrapper.Push(Element(2), 2);
  wrapper.Push(Element(5), 5);  // parked; lost on rebind
  wrapper.Rebind("peer-b", "sensor-b");
  EXPECT_EQ(wrapper.peer_node(), "peer-b");
  EXPECT_EQ(wrapper.remote_sensor(), "sensor-b");
  EXPECT_EQ(wrapper.expected_sequence(), 1u);
  EXPECT_EQ(wrapper.max_seen_sequence(), 0u);
  // The new producer's sequence space starts from 1 again.
  EXPECT_EQ(wrapper.Push(Element(100), 1).admitted, 1);
  auto polled = wrapper.Poll(kMicrosPerSecond);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 3u);  // 1, 2 from before plus the new 1
}

// ------------------------------------------------- simulator fault injection

class RecordingNode : public NetworkNode {
 public:
  void OnMessage(const Message& message) override {
    messages.push_back(message);
  }
  std::vector<Message> messages;
};

TEST(SimulatorFaultTest, PartitionDropsBothDirections) {
  NetworkSimulator sim(1);
  RecordingNode a;
  RecordingNode b;
  ASSERT_TRUE(sim.RegisterNode("a", &a).ok());
  ASSERT_TRUE(sim.RegisterNode("b", &b).ok());

  sim.SetPartitioned("a", "b", true);
  ASSERT_TRUE(sim.Send(0, "a", "b", "t", "x").ok());
  ASSERT_TRUE(sim.Send(0, "b", "a", "t", "y").ok());
  sim.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(sim.stats().dropped, 2);

  sim.SetPartitioned("a", "b", false);
  ASSERT_TRUE(sim.Send(kMicrosPerSecond, "a", "b", "t", "x").ok());
  sim.DeliverUntil(2 * kMicrosPerSecond);
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(SimulatorFaultTest, DownNodeNeitherSendsNorReceives) {
  NetworkSimulator sim(1);
  RecordingNode a;
  RecordingNode b;
  ASSERT_TRUE(sim.RegisterNode("a", &a).ok());
  ASSERT_TRUE(sim.RegisterNode("b", &b).ok());

  sim.SetNodeDown("b", true);
  EXPECT_TRUE(sim.IsNodeDown("b"));
  ASSERT_TRUE(sim.Send(0, "a", "b", "t", "to-down").ok());
  ASSERT_TRUE(sim.Send(0, "b", "a", "t", "from-down").ok());
  sim.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());

  // Restart: registration survived, traffic flows again.
  sim.SetNodeDown("b", false);
  ASSERT_TRUE(sim.Send(kMicrosPerSecond, "a", "b", "t", "hello").ok());
  sim.DeliverUntil(2 * kMicrosPerSecond);
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].payload, "hello");
}

TEST(SimulatorFaultTest, FaultsActAtDeliveryTimeToo) {
  // A message already in flight when the partition lands is lost, like
  // a cable pull.
  NetworkSimulator sim(1);
  RecordingNode a;
  RecordingNode b;
  ASSERT_TRUE(sim.RegisterNode("a", &a).ok());
  ASSERT_TRUE(sim.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig slow;
  slow.base_latency_micros = 10 * kMicrosPerMilli;
  sim.SetDefaultLink(slow);

  ASSERT_TRUE(sim.Send(0, "a", "b", "t", "in-flight").ok());
  sim.ScheduleAt(5 * kMicrosPerMilli,
                 [&sim] { sim.SetPartitioned("a", "b", true); });
  sim.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(sim.stats().dropped, 1);
}

TEST(SimulatorFaultTest, ScheduledActionsInterleaveDeterministically) {
  NetworkSimulator sim(1);
  RecordingNode b;
  RecordingNode a;
  ASSERT_TRUE(sim.RegisterNode("a", &a).ok());
  ASSERT_TRUE(sim.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig link;
  link.base_latency_micros = 10;
  sim.SetDefaultLink(link);

  // The heal at 500us runs before the scripted send at 600us (actions
  // fire in time order inside DeliverUntil): the first message dies in
  // the partition, the second gets through.
  sim.SetPartitioned("a", "b", true);
  ASSERT_TRUE(sim.Send(100, "a", "b", "t", "first").ok());
  sim.ScheduleAt(500, [&sim] { sim.SetPartitioned("a", "b", false); });
  sim.ScheduleAt(600, [&sim] {
    ASSERT_TRUE(sim.Send(600, "a", "b", "t", "second").ok());
  });
  sim.DeliverUntil(kMicrosPerSecond);
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].payload, "second");
}

TEST(SimulatorFaultTest, SetLossIsDirectional) {
  NetworkSimulator sim(3);
  RecordingNode a;
  RecordingNode b;
  ASSERT_TRUE(sim.RegisterNode("a", &a).ok());
  ASSERT_TRUE(sim.RegisterNode("b", &b).ok());
  sim.SetLoss("a", "b", 1.0);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.Send(i, "a", "b", "t", "gone").ok());
    ASSERT_TRUE(sim.Send(i, "b", "a", "t", "fine").ok());
  }
  sim.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(a.messages.size(), 10u);

  sim.SetLoss("a", "b", 0.0);
  ASSERT_TRUE(sim.Send(kMicrosPerSecond, "a", "b", "t", "back").ok());
  sim.DeliverUntil(2 * kMicrosPerSecond);
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(SimulatorFaultTest, ClearFaultsLiftsPartitionsAndDownNodes) {
  NetworkSimulator sim(1);
  RecordingNode a;
  RecordingNode b;
  ASSERT_TRUE(sim.RegisterNode("a", &a).ok());
  ASSERT_TRUE(sim.RegisterNode("b", &b).ok());
  sim.SetPartitioned("a", "b", true);
  sim.SetNodeDown("a", true);
  sim.ClearFaults();
  EXPECT_FALSE(sim.IsNodeDown("a"));
  ASSERT_TRUE(sim.Send(0, "a", "b", "t", "x").ok());
  sim.DeliverUntil(kMicrosPerSecond);
  EXPECT_EQ(b.messages.size(), 1u);
}

}  // namespace
}  // namespace gsn::network

// ------------------------------------------------- WrapperConfig accessors

namespace gsn::wrappers {
namespace {

TEST(WrapperConfigTest, GetBoolParsesAndFallsBack) {
  WrapperConfig config;
  config.params = {{"loop", "yes"}, {"bad", "maybe"}};
  auto loop = config.GetBool("loop", false);
  ASSERT_TRUE(loop.ok());
  EXPECT_TRUE(*loop);
  auto absent = config.GetBool("absent", true);
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(*absent);
  auto bad = config.GetBool("bad", false);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("'bad'"), std::string::npos)
      << bad.status().ToString();
}

TEST(WrapperConfigTest, GetDurationParsesUnitsAndNamesKeyOnError) {
  WrapperConfig config;
  config.params = {{"interval", "250ms"},
                   {"timeout", "2"},  // bare integer = seconds
                   {"broken", "fast"}};
  auto interval = config.GetDuration("interval", 0);
  ASSERT_TRUE(interval.ok());
  EXPECT_EQ(*interval, 250 * kMicrosPerMilli);
  auto timeout = config.GetDuration("timeout", 0);
  ASSERT_TRUE(timeout.ok());
  EXPECT_EQ(*timeout, 2 * kMicrosPerSecond);
  auto fallback = config.GetDuration("absent", 123);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 123);
  auto broken = config.GetDuration("broken", 0);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kParseError);
  EXPECT_NE(broken.status().ToString().find("'broken'"), std::string::npos);
}

}  // namespace
}  // namespace gsn::wrappers
