// `federation`: two containers in one process over real loopback TCP
// (EpollTransport). M generator producers on one node are mirrored by
// M wrapper="remote" consumers on the other. A round is one producer
// Tick and lasts until the consumer has output all M elements; the
// benchmark waits for the arrivals by blocking on a Transport decorator
// of its own around each EpollTransport, never by spinning Tick or
// sleeping. The load is network framing, integrity signing, federation
// sequencing and remote admission, with little SQL and no durable
// storage.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "gsn/container/container.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/protocol.h"
#include "gsn/util/rng.h"

namespace e2e {
namespace {

using gsn::network::kTopicStream;

constexpr gsn::Timestamp kInterval = 100 * gsn::kMicrosPerMilli;
/// Rows each producer and each mirror keeps (a sensor without
/// `<storage size>` keeps its whole history in memory). Bounded, so
/// rss_peak_mb barely follows how many rounds a run completed.
constexpr int64_t kHistoryRows = 1000;
/// Longest a round waits for its elements before it counts as failed.
constexpr auto kArrivalTimeout = std::chrono::seconds(5);

/// Send stamps of stream frames on the one producer -> consumer link,
/// matched first-in first-out by the receiving decorator (one TCP
/// connection delivers in order).
struct HopLog {
  std::mutex mu;
  std::deque<int64_t> sent_ns;
};

/// Transport decorator: forwards to an EpollTransport, counts arrivals
/// per topic so the benchmark can block until they are in, and, traced,
/// times sends, hops and the receiving node's admission.
class WaitTransport : public gsn::network::Transport {
 public:
  WaitTransport(gsn::network::Transport* inner, Tracer* tracer, HopLog* hops)
      : inner_(inner), tracer_(tracer), hops_(hops) {}

  gsn::Status RegisterNode(const std::string& node_id,
                           gsn::network::NetworkNode* node) override {
    intercept_ = std::make_unique<Intercept>(this, node);
    return inner_->RegisterNode(node_id, intercept_.get());
  }
  gsn::Status UnregisterNode(const std::string& node_id) override {
    return inner_->UnregisterNode(node_id);
  }
  gsn::Status Send(gsn::Timestamp now, const std::string& from,
                   const std::string& to, const std::string& topic,
                   std::string payload) override {
    if (topic != kTopicStream || !tracer_->enabled()) {
      return inner_->Send(now, from, to, topic, std::move(payload));
    }
    const size_t bytes = payload.size();
    // Held across the send so stamps queue in wire order.
    std::lock_guard<std::mutex> lock(hops_->mu);
    const int64_t start = NowNs();
    hops_->sent_ns.push_back(start);
    const gsn::Status status =
        inner_->Send(now, from, to, topic, std::move(payload));
    send_ns_ += NowNs() - start;
    ++sends_;
    stream_bytes_ += static_cast<int64_t>(bytes);
    return status;
  }
  gsn::Status Broadcast(gsn::Timestamp now, const std::string& from,
                        const std::string& topic,
                        const std::string& payload) override {
    return inner_->Broadcast(now, from, topic, payload);
  }
  int Pump(gsn::Timestamp now) override { return inner_->Pump(now); }
  std::string transport_name() const override {
    return inner_->transport_name();
  }
  void SetErrorCallback(ErrorCallback callback) override {
    inner_->SetErrorCallback(std::move(callback));
  }
  void SetPeerUpCallback(PeerUpCallback callback) override {
    inner_->SetPeerUpCallback(std::move(callback));
  }

  /// Blocks until `count` messages of `topic` have arrived in total;
  /// false on timeout.
  bool WaitFor(const std::string& topic, int64_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kArrivalTimeout,
                        [&] { return arrivals_[topic] >= count; });
  }
  int64_t Arrivals(const std::string& topic) {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_[topic];
  }
  int64_t TotalArrivals() {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t total = 0;
    for (const auto& [topic, n] : arrivals_) total += n;
    return total;
  }
  /// Element delivery times (ms since the round started) of stream
  /// frames that arrived since the last call.
  std::vector<double> TakeDeliveries() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(deliveries_ms_);
  }
  void set_round_start(int64_t ns) { round_start_ns_.store(ns); }

  // Traced totals (stream frames only).
  struct Sent {
    int64_t frames = 0;
    double send_us = 0;
    int64_t bytes = 0;
  };
  Sent sent() {
    std::lock_guard<std::mutex> lock(hops_->mu);
    return Sent{sends_, send_ns_ / 1e3, stream_bytes_};
  }
  std::vector<double> hop_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return hop_ms_;
  }
  std::vector<double> admit_us() {
    std::lock_guard<std::mutex> lock(mu_);
    return admit_us_;
  }

 private:
  class Intercept : public gsn::network::NetworkNode {
   public:
    Intercept(WaitTransport* owner, gsn::network::NetworkNode* node)
        : owner_(owner), node_(node) {}
    void OnMessage(const gsn::network::Message& message) override {
      owner_->Deliver(node_, message);
    }

   private:
    WaitTransport* owner_;
    gsn::network::NetworkNode* node_;
  };

  /// Runs on the event-loop thread of the receiving transport.
  void Deliver(gsn::network::NetworkNode* node,
               const gsn::network::Message& message) {
    const bool stream = message.topic == kTopicStream;
    const int64_t start = NowNs();
    int64_t sent = 0;
    if (stream && tracer_->enabled()) {
      std::lock_guard<std::mutex> lock(hops_->mu);
      if (!hops_->sent_ns.empty()) {
        sent = hops_->sent_ns.front();
        hops_->sent_ns.pop_front();
      }
    }
    node->OnMessage(message);
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    ++arrivals_[message.topic];
    if (stream) {
      deliveries_ms_.push_back(
          static_cast<double>(start - round_start_ns_.load()) / 1e6);
      if (tracer_->enabled()) {
        tracer_->Add("container.remote_admit", start, end, -1, 0);
        admit_us_.push_back(static_cast<double>(end - start) / 1e3);
        if (sent > 0) {
          tracer_->Add("network.hop", sent, start, -1, 0);
          hop_ms_.push_back(static_cast<double>(start - sent) / 1e6);
        }
      }
    }
    cv_.notify_all();
  }

  gsn::network::Transport* inner_;
  Tracer* tracer_;
  HopLog* hops_;
  std::unique_ptr<Intercept> intercept_;
  std::atomic<int64_t> round_start_ns_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, int64_t> arrivals_;  // guarded by mu_
  std::vector<double> deliveries_ms_;        // guarded by mu_
  std::vector<double> hop_ms_;               // guarded by mu_
  std::vector<double> admit_us_;             // guarded by mu_
  // Guarded by hops_->mu.
  int64_t sends_ = 0;
  int64_t send_ns_ = 0;
  int64_t stream_bytes_ = 0;
};

struct Shape {
  int mirrors;  // M
  int setups;
};

Shape ShapeFor(const Args& args) {
  if (args.small) return Shape{8, 1};
  return Shape{64, 3};
}

std::string ProducerXml(int i, int64_t period) {
  return "<virtual-sensor name=\"p" + std::to_string(i) +
         "\"><metadata><predicate key=\"type\" val=\"fed\"/>"
         "<predicate key=\"idx\" val=\"" + std::to_string(i) +
         "\"/></metadata>"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "<field name=\"value\" type=\"double\"/></output-structure>"
         "<storage size=\"" + std::to_string(kHistoryRows) + "\"/>"
         "<input-stream name=\"in\">"
         "<stream-source alias=\"src\" storage-size=\"1\">"
         "<address wrapper=\"generator\">"
         "<predicate key=\"interval-ms\" val=\"100\"/>"
         "<predicate key=\"payload-bytes\" val=\"0\"/>"
         "<predicate key=\"value-period\" val=\"" + std::to_string(period) +
         "\"/></address>"
         "<query>select seq, value from wrapper</query></stream-source>"
         "<query>select * from src</query></input-stream></virtual-sensor>";
}

std::string MirrorXml(int i) {
  return "<virtual-sensor name=\"m" + std::to_string(i) +
         "\"><output-structure><field name=\"seq\" type=\"integer\"/>"
         "<field name=\"value\" type=\"double\"/></output-structure>"
         "<storage size=\"" + std::to_string(kHistoryRows) + "\"/>"
         "<input-stream name=\"in\">"
         "<stream-source alias=\"src\" storage-size=\"1\">"
         "<address wrapper=\"remote\"><predicate key=\"type\" val=\"fed\"/>"
         "<predicate key=\"idx\" val=\"" + std::to_string(i) +
         "\"/></address>"
         "<query>select * from wrapper</query></stream-source>"
         "<query>select * from src</query></input-stream></virtual-sensor>";
}

/// Both nodes. Members are declared so that destruction runs
/// containers, then decorators, then transports; Stop() joins the
/// event loops before any container goes away.
struct Federation {
  HopLog hops;
  gsn::telemetry::MetricRegistry registry_a;
  gsn::telemetry::MetricRegistry registry_b;
  std::unique_ptr<gsn::network::EpollTransport> net_a;
  std::unique_ptr<gsn::network::EpollTransport> net_b;
  std::unique_ptr<WaitTransport> wait_a;
  std::unique_ptr<WaitTransport> wait_b;
  std::shared_ptr<gsn::VirtualClock> clock_a;
  std::shared_ptr<gsn::VirtualClock> clock_b;
  std::unique_ptr<gsn::container::Container> a;  // producers
  std::unique_ptr<gsn::container::Container> b;  // mirrors
  std::vector<int64_t> periods;

  void Stop() {
    if (net_a != nullptr) net_a->Stop();
    if (net_b != nullptr) net_b->Stop();
  }
  ~Federation() {
    Stop();
    a.reset();
    b.reset();
  }
};

bool SetUp(const Args& args, const Shape& shape, Tracer* tracer,
           Federation* f, std::string* error) {
  gsn::Rng rng(args.seed * 6151 + 3);
  auto make_transport = [&](gsn::telemetry::MetricRegistry* registry) {
    gsn::network::EpollTransport::Options options;
    options.metrics = registry;
    return std::make_unique<gsn::network::EpollTransport>(options);
  };
  f->net_a = make_transport(&f->registry_a);
  f->net_b = make_transport(&f->registry_b);
  for (auto* net : {f->net_a.get(), f->net_b.get()}) {
    gsn::Status s = net->Start();
    if (s.ok()) s = net->ListenPeer(0);
    if (!s.ok()) {
      *error = s.ToString();
      return false;
    }
  }
  f->net_a->AddPeer("node-b", "127.0.0.1", f->net_b->peer_port());
  f->net_b->AddPeer("node-a", "127.0.0.1", f->net_a->peer_port());
  f->wait_a = std::make_unique<WaitTransport>(f->net_a.get(), tracer, &f->hops);
  f->wait_b = std::make_unique<WaitTransport>(f->net_b.get(), tracer, &f->hops);

  auto make_container = [&](const char* id, WaitTransport* net,
                            gsn::telemetry::MetricRegistry* registry,
                            std::shared_ptr<gsn::VirtualClock>* clock) {
    *clock = std::make_shared<gsn::VirtualClock>(gsn::kMicrosPerSecond);
    gsn::container::Container::Options options;
    options.node_id = id;
    options.clock = *clock;
    options.seed = args.seed;
    options.network = net;
    options.metrics = registry;
    options.sharding.shards = 1;
    options.sharding.tick_workers = 1;
    return std::make_unique<gsn::container::Container>(std::move(options));
  };
  f->a = make_container("node-a", f->wait_a.get(), &f->registry_a, &f->clock_a);
  f->b = make_container("node-b", f->wait_b.get(), &f->registry_b, &f->clock_b);

  for (int i = 0; i < shape.mirrors; ++i) {
    f->periods.push_back(50 + static_cast<int64_t>(rng.NextUint64() % 100));
    auto deployed = f->a->Deploy(ProducerXml(i, f->periods.back()));
    if (!deployed.ok()) {
      *error = deployed.status().ToString();
      return false;
    }
  }
  // Block until every producer's directory entry reached node-b.
  const std::map<std::string, std::string> all = {{"type", "fed"}};
  while (true) {
    const int64_t seen = f->wait_b->Arrivals(gsn::network::kTopicDirPublish);
    if (f->b->Discover(all).size() >= static_cast<size_t>(shape.mirrors)) {
      break;
    }
    if (!f->wait_b->WaitFor(gsn::network::kTopicDirPublish, seen + 1)) {
      *error = "directory entries did not arrive";
      return false;
    }
  }
  for (int i = 0; i < shape.mirrors; ++i) {
    auto deployed = f->b->Deploy(MirrorXml(i));
    if (!deployed.ok()) {
      *error = deployed.status().ToString();
      return false;
    }
  }
  if (!f->wait_b->WaitFor(gsn::network::kTopicSubAck, shape.mirrors)) {
    *error = "subscriptions were not acknowledged";
    return false;
  }
  // The first producer tick anchors every generator's schedule.
  auto anchored = f->a->Tick();
  if (!anchored.ok()) {
    *error = anchored.status().ToString();
    return false;
  }
  return true;
}

struct Phase {
  int64_t rounds = 0;
  int64_t failed = 0;
  int64_t elements = 0;
  int64_t arrivals_before = 0;  // all frames, both directions
  int64_t arrivals_after = 0;
  double wall_s = 0;
  double round_total_ms = 0;
  std::vector<double> round_ms;
  std::vector<double> delivery_ms;
};

Phase Measure(const Shape& shape, double seconds, Tracer* tracer,
              int64_t* round, Federation* f) {
  Phase phase;
  phase.arrivals_before = f->wait_a->TotalArrivals() +
                          f->wait_b->TotalArrivals();
  f->wait_b->TakeDeliveries();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const int64_t target =
        f->wait_b->Arrivals(kTopicStream) + shape.mirrors;
    f->clock_a->Advance(kInterval);
    f->clock_b->Advance(kInterval);
    const int64_t round_start = NowNs();
    f->wait_b->set_round_start(round_start);
    const int64_t span = tracer->Begin("federation.round", -1, *round);
    int64_t s = tracer->Begin("container.producer_tick", span, *round);
    auto produced = f->a->Tick();
    tracer->End(s);
    s = tracer->Begin("federation.wait", span, *round);
    const bool arrived = f->wait_b->WaitFor(kTopicStream, target);
    tracer->End(s);
    s = tracer->Begin("container.consumer_tick", span, *round);
    auto mirrored = f->b->Tick();
    tracer->End(s);
    tracer->End(span);
    const double ms = MsSince(round_start);
    phase.round_ms.push_back(ms);
    phase.round_total_ms += ms;
    ++phase.rounds;
    ++*round;
    if (!produced.ok() || *produced != shape.mirrors || !arrived ||
        !mirrored.ok() || *mirrored != shape.mirrors) {
      ++phase.failed;
    } else {
      phase.elements += *mirrored;
    }
    for (double d : f->wait_b->TakeDeliveries()) phase.delivery_ms.push_back(d);
  }
  phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  phase.arrivals_after = f->wait_a->TotalArrivals() +
                         f->wait_b->TotalArrivals();
  return phase;
}

void Check(const Shape& shape, int64_t rounds, Federation* f,
           Result* result) {
  // Each mirror holds exactly the last min(R, window) sequence numbers
  // once each; every earlier element was output in its own round.
  const int64_t kept = std::min(rounds, kHistoryRows);
  bool exact = true;
  std::string detail = std::to_string(shape.mirrors) + " mirrors x " +
                       std::to_string(kept) + " of " +
                       std::to_string(rounds) + " elements";
  for (int i = 0; i < shape.mirrors && exact; ++i) {
    const std::string name = "m" + std::to_string(i);
    auto summary = f->b->Query(
        "select count(*), count(distinct seq), min(seq), max(seq) from " +
        name);
    auto rows = f->b->Query("select seq, value from " + name);
    exact = summary.ok() && rows.ok() && summary->rows().size() == 1 &&
            summary->rows()[0][0].int_value() == kept &&
            summary->rows()[0][1].int_value() == kept &&
            summary->rows()[0][2].int_value() == rounds - kept &&
            summary->rows()[0][3].int_value() == rounds - 1;
    for (size_t r = 0; exact && r < rows->rows().size(); ++r) {
      const auto& row = rows->rows()[r];
      exact = std::fabs(row[1].double_value() -
                        GeneratorValue(row[0].int_value(),
                                       f->periods[static_cast<size_t>(i)])) <
              1e-12;
    }
    if (!exact) {
      detail = name + ": " +
               (summary.ok() ? summary->ToString()
                             : summary.status().ToString());
    }
  }
  result->AddCheck("federation.mirrors_exactly_once", exact, detail);
  const double dups =
      SeriesSum(TakeScrape(f->registry_b), "gsn_federation_dups_total");
  result->AddCheck("federation.no_duplicates", dups == 0,
                   "gsn_federation_dups_total " + std::to_string(dups));
}

}  // namespace

int RunFederation(const Args& args, Result* result) {
  const Shape shape = ShapeFor(args);
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<Federation> f;
  for (int attempt = 0; attempt < shape.setups; ++attempt) {
    f.reset();
    f = std::make_unique<Federation>();
    std::string error;
    const int64_t start = NowNs();
    if (!SetUp(args, shape, &tracer, f.get(), &error)) {
      std::fprintf(stderr, "federation set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  int64_t round = 0;
  Phase untraced;
  if (args.trace) untraced = Measure(shape, args.seconds / 2, &tracer, &round, f.get());
  tracer.set_enabled(args.trace);
  gsn::telemetry::MetricRegistry* registries[] = {&f->registry_a,
                                                  &f->registry_b};
  Scrape before;
  for (auto* registry : registries) {
    for (const auto& [key, value] : TakeScrape(*registry)) before[key] += value;
  }
  const Phase phase = Measure(shape, args.trace ? args.seconds / 2
                                                : args.seconds,
                              &tracer, &round, f.get());
  Scrape after;
  for (auto* registry : registries) {
    for (const auto& [key, value] : TakeScrape(*registry)) after[key] += value;
  }
  tracer.set_enabled(false);

  result->attempted = untraced.rounds + phase.rounds;
  result->failed = untraced.failed + phase.failed;
  Check(shape, round, f.get(), result);

  const double elements_per_s = phase.elements / phase.wall_s;
  result->Set("throughput_per_s", elements_per_s, "1/s");
  result->Set("primary_p50_ms", Median(phase.round_ms), "ms");
  result->Set("primary_tail_ms", Percentile(phase.round_ms, 0.99), "ms");
  result->Set("secondary_p50_ms", Median(phase.delivery_ms), "ms");
  result->Set("secondary_tail_ms", Percentile(phase.delivery_ms, 0.99), "ms");
  result->Set("setup_s", Median(setup_s), "s");
  result->Set("rss_peak_mb", RssPeakMb(), "MB");
  result->notes.push_back("rounds " + std::to_string(phase.rounds) +
                          ", mirrors " + std::to_string(shape.mirrors) +
                          ", set-ups " + std::to_string(shape.setups));

  if (args.trace) {
    ProgramLayers(before, after, phase.rounds, result);
    const WaitTransport::Sent sent = f->wait_a->sent();
    const std::vector<double> hop_ms = f->wait_b->hop_ms();
    const double sends = static_cast<double>(sent.frames);
    result->Set("network.send_us", sends > 0 ? sent.send_us / sends : 0,
                "us");
    result->Set("network.hop_ms.p50", Median(hop_ms), "ms");
    result->Set("network.hop_ms.p99", Percentile(hop_ms, 0.99), "ms");
    result->Set("network.frames_per_round",
                static_cast<double>(phase.arrivals_after -
                                    phase.arrivals_before) /
                    static_cast<double>(phase.rounds),
                "count");
    result->Set("network.bytes_per_element",
                phase.elements > 0
                    ? sent.bytes / static_cast<double>(phase.elements)
                    : 0,
                "B");
    result->Set("container.remote_admit_us", Mean(f->wait_b->admit_us()), "us");
    result->Set("container.elements_per_stream_frame",
                sends > 0 ? phase.elements / sends : 0, "ratio");
    std::vector<Span> spans = tracer.Take();
    const auto summary = Summarize(spans);
    auto mean_ms = [&](const std::string& name) {
      auto it = summary.find(name);
      return it == summary.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_ms / static_cast<double>(it->second.count);
    };
    auto total_ms = [&](const std::string& name) {
      auto it = summary.find(name);
      return it == summary.end() ? 0.0 : it->second.total_ms;
    };
    result->Set("container.producer_tick_ms",
                mean_ms("container.producer_tick"), "ms");
    result->Set("container.consumer_tick_ms",
                mean_ms("container.consumer_tick"), "ms");
    ReportTrace(args, spans, phase.round_total_ms,
                total_ms("container.producer_tick") +
                    total_ms("federation.wait") +
                    total_ms("container.consumer_tick"),
                Median(untraced.round_ms), Median(phase.round_ms), result);
  }
  return 0;
}

}  // namespace e2e
