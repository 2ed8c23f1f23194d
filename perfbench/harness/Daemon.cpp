//===- perfbench/harness/Daemon.cpp - Workload daemon_mix -----------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// `fearlessc --daemon`: an in-process server::Server on a unix socket in
// the run's scratch directory. One client sends requests closed-loop, as
// a user running `fearlessc --daemon` does: each request opens a fresh
// WireClient connection and the next one leaves when the reply is in.
// The server starts with its derivation cache warmed by a hot set of 16
// sources, as a daemon that has been serving for a while. The mix:
//
//   check / run / analyze over the hot set, Zipf(1)-skewed. Check and run
//   are derivation-cache hits (the read path); analyze is never cached
//   and recompiles.
//   miss: one request in ten checks a never-seen generated source, so it
//   compiles, inserts and evicts (the cache budget holds the hot set, not
//   the hot set plus the misses). This is the write path.
//
// Every response must equal, byte for byte, what the standalone pipeline
// (renderCheckOutput / runArtifact / analyzeSourceText) prints for the
// same request — the daemon's documented contract.
//
// The reference computation runs on the client thread between requests,
// when nothing is in flight, and each request is calibrated by the
// nearest sample.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/StaticDisconnect.h"
#include "server/Client.h"
#include "server/Server.h"

#include <sstream>

using namespace fearless;
using namespace fearless::server;

namespace perfbench {
namespace {

/// The latency limit of daemon_slo_ratio.
constexpr double SloMs = 50;
/// Derivation-cache budget: holds the hot set, not hot set + misses.
constexpr size_t CacheBytes = 3u << 20;
/// Server workers: with the accept thread and the client, one thread per
/// CPU of a 4-CPU host.
constexpr size_t ServerWorkers = 2;
/// Share of requests that carry a never-seen source.
constexpr double MissShare = 0.1;

enum Kind { Check, Run, Analyze, Miss, NumKinds };
const char *KindNames[NumKinds] = {"check", "run", "analyze", "miss"};
/// Check, run and analyze: the kinds of hot requests.
constexpr size_t HotKinds = Miss;
/// Of the hot requests to one source: the share of analyze, and of run
/// when the source has a run entry; check takes the rest.
constexpr double AnalyzeShare = 0.25;
constexpr double RunShare = 0.35;

struct HotSource {
  std::string Name;
  std::string Source;
  /// Run entry with a closed-form result; empty = check/analyze only.
  std::string Fn;
  std::vector<int64_t> Args;
  int64_t Want = 0;
};

/// Ranked hottest first; Zipf(1) over this order.
std::vector<HotSource> hotSet(const Args &A) {
  std::vector<HotSource> H;
  H.push_back({"rb.fls", rbDriverSource(), "drive", {200},
               distinctRbKeys(200)});
  H.push_back({"msg_pipeline.fls",
               readFileOrDie(A.Root + "/examples/msg_pipeline.fls"), "main",
               {}, 3});
  H.push_back({"dll.fls", dllDriverSource(), "drive", {100}, 100});
  H.push_back({"sll.fls", programs::SllSuite, "", {}, 0});
  H.push_back({"message.fls", programs::MessagePassing, "", {}, 0});
  H.push_back({"trie.fls", programs::BitTrie, "", {}, 0});
  H.push_back({"extras.fls", programs::Extras, "", {}, 0});
  for (const char *F :
       {"examples/dll_remove.fls", "examples/disconnect_static.fls",
        "tests/fixtures/cross_call_disconnected.fls",
        "tests/fixtures/dead_branch.fls", "tests/fixtures/must_connected.fls",
        "tests/fixtures/must_disconnected.fls",
        "tests/fixtures/never_populated.fls",
        "tests/fixtures/recursive_scc.fls",
        "tests/fixtures/summary_downgrade.fls"}) {
    std::string Path = F;
    H.push_back({Path.substr(Path.rfind('/') + 1),
                 readFileOrDie(A.Root + "/" + Path), "", {}, 0});
  }
  return H;
}

struct Request {
  Kind K = Check;
  /// Hot-set index, or miss-base index for Miss.
  size_t Src = 0;
  uint64_t Id = 0;
};

struct Outcome {
  double LatencyMs = 0;
  double CalMs = 0;
  bool Answered = false;
  WireResponse Resp;
  std::string Error;
};

struct Expect {
  int Exit = 0;
  std::string Out, Err;
};

std::string missSource(const std::string &Base, uint64_t Id) {
  return Base + "\n// request " + std::to_string(Id) + "\n";
}

WireRequest makeRequest(const Request &P, const std::vector<HotSource> &Hot,
                        const std::vector<std::string> &MissBases) {
  WireRequest R;
  R.Id = static_cast<int64_t>(P.Id);
  if (P.K == Miss) {
    R.Op = WireOp::Check;
    R.Name = "miss.fls";
    R.Source = missSource(MissBases[P.Src], P.Id);
    return R;
  }
  const HotSource &H = Hot[P.Src];
  R.Name = H.Name;
  R.Source = H.Source;
  R.Op = P.K == Run ? WireOp::Run
                    : P.K == Analyze ? WireOp::Analyze : WireOp::Check;
  if (P.K == Run) {
    R.Fn = H.Fn;
    R.Args = H.Args;
  }
  return R;
}

/// What the standalone pipeline prints for \p R: the oracle.
Expect standalone(const WireRequest &R) {
  Expect E;
  if (R.Op == WireOp::Analyze) {
    SourceAnalysis SA = analyzeSourceText(R.Source, R.Name, {});
    E.Exit = SA.HardError ? 3 : 0;
    E.Out = SA.Rendered;
    return E;
  }
  Expected<std::shared_ptr<const CompiledArtifact>> A =
      buildArtifact(R.Source, PipelineOptions{});
  if (!A) {
    E.Exit = exitCodeForStage(A.error().Stage);
    E.Err = A.error().render() + "\n";
    return E;
  }
  if (R.Op == WireOp::Check) {
    E.Out = renderCheckOutput(**A, R.Name);
    return E;
  }
  RunSpec Spec;
  Spec.Fn = R.Fn;
  Spec.Args = R.Args;
  RunOutcome O = runArtifact(**A, Spec);
  E.Exit = O.Exit;
  E.Out = O.Out;
  E.Err = O.Err;
  return E;
}

/// The seeded request mix: kind and source of each request.
class Mix {
public:
  Mix(uint64_t Seed, const std::vector<HotSource> &Hot, size_t MissBases)
      : G(Seed ^ 0xDAE40000ull), Hot(Hot), MissBases(MissBases) {
    // Zipf(1) CDF over hot ranks.
    for (size_t I = 0; I < Hot.size(); ++I)
      Cdf.push_back(Sum += 1.0 / static_cast<double>(I + 1));
  }

  /// The mix's request classes: (kind, hot source) pairs, then one class
  /// for all misses.
  size_t classes() const { return HotKinds * Hot.size() + 1; }
  static size_t classOf(const Request &P, size_t HotCount) {
    return P.K == Miss ? HotKinds * HotCount : P.K * HotCount + P.Src;
  }
  /// Each class's probability, from the mix's definition in next().
  std::vector<double> shares() const {
    std::vector<double> W(classes(), 0.0);
    for (size_t I = 0; I < Hot.size(); ++I) {
      double Src = (1 - MissShare) * (1.0 / static_cast<double>(I + 1)) / Sum;
      double RunPart = Hot[I].Fn.empty() ? 0 : RunShare;
      W[Analyze * Hot.size() + I] = Src * AnalyzeShare;
      W[Run * Hot.size() + I] = Src * RunPart;
      W[Check * Hot.size() + I] = Src * (1 - AnalyzeShare - RunPart);
    }
    W[HotKinds * Hot.size()] = MissShare;
    return W;
  }

  Request next() {
    Request P;
    P.Id = ++Id;
    if (G.uniform() < MissShare) {
      P.K = Miss;
      P.Src = G.below(MissBases);
      return P;
    }
    double U = G.uniform() * Sum;
    while (P.Src + 1 < Hot.size() && Cdf[P.Src] < U)
      ++P.Src;
    double Op = G.uniform();
    if (Op < AnalyzeShare)
      P.K = Analyze;
    else if (Op < AnalyzeShare + RunShare && !Hot[P.Src].Fn.empty())
      P.K = Run;
    else
      P.K = Check;
    return P;
  }

private:
  Rng G;
  const std::vector<HotSource> &Hot;
  size_t MissBases;
  std::vector<double> Cdf;
  double Sum = 0;
  uint64_t Id = 0;
};

/// One server instance plus the phase of load it serves.
struct Phase {
  /// The requests sent, in order, and their outcomes.
  std::vector<Request> Sent;
  std::vector<Outcome> Results;
  /// How long the phase ran.
  double Ms = 0;
  RuntimeMetrics ServerMetrics;
};

std::unique_ptr<Server> startServer(const Args &A, TraceSession *Trace,
                                    const std::vector<HotSource> &Hot) {
  ServerOptions SO;
  SO.SocketPath = A.Scratch + "/d.sock";
  SO.Workers = ServerWorkers;
  SO.CacheBytes = CacheBytes;
  SO.Trace = Trace;
  auto S = std::make_unique<Server>(SO);
  if (ExpectedVoid E = S->start(); !E) {
    std::fprintf(stderr, "perfbench: %s\n", E.error().Message.c_str());
    std::exit(2);
  }
  // Warm the derivation cache with the hot set.
  for (const HotSource &H : Hot) {
    WireClient C;
    WireRequest R;
    R.Name = H.Name;
    R.Source = H.Source;
    Expected<WireResponse> Resp = C.connect(SO.SocketPath)
                                      ? C.request(R)
                                      : Expected<WireResponse>(
                                            fail("cannot connect"));
    if (!Resp || Resp->Exit != 0) {
      std::fprintf(stderr, "perfbench: daemon warm-up failed on %s\n",
                   H.Name.c_str());
      std::exit(2);
    }
  }
  return S;
}

void stopServer(std::unique_ptr<Server> &S) {
  S->requestShutdown();
  S->run();
  S.reset();
}

/// Drives one phase closed-loop for \p Ms from the calling thread; the
/// server must already be warm. The reference runs between requests, at
/// most every 50 ms.
void drive(const Args &A, Phase &Ph, double Ms, Mix &Gen, TraceBuffer *TB,
           const std::vector<HotSource> &Hot,
           const std::vector<std::string> &MissBases, Calibration &Cal) {
  std::string Socket = A.Scratch + "/d.sock";
  Clock::time_point Start = Clock::now();
  while (msSince(Start) < Ms) {
    Cal.sampleIfOlder(50);
    Request P = Gen.next();
    WireRequest Req = makeRequest(P, Hot, MissBases);
    Outcome O;
    Clock::time_point T0 = Clock::now();
    {
      SpanScope Span(TB, "client.request", P.Id);
      WireClient C;
      ExpectedVoid Conn = [&] {
        SpanScope CS(TB, "client.connect", P.Id);
        return C.connect(Socket);
      }();
      if (!Conn) {
        O.Error = Conn.error().Message;
      } else if (Expected<WireResponse> R = C.request(Req); !R) {
        O.Error = R.error().Message;
      } else {
        O.Resp = *R;
        O.Answered = true;
      }
    }
    O.LatencyMs = msSince(T0);
    O.CalMs = O.LatencyMs * Cal.factorAt(T0);
    Ph.Sent.push_back(P);
    Ph.Results.push_back(std::move(O));
  }
  Ph.Ms = msSince(Start);
}

} // namespace

Result runDaemon(const Args &A) {
  Result R;
  std::vector<HotSource> Hot = hotSet(A);
  std::vector<std::string> MissBases;
  {
    std::istringstream Rows(readFileOrDie(A.Inputs + "/manifest.tsv"));
    std::string Row;
    while (std::getline(Rows, Row)) {
      std::istringstream Cols(Row);
      std::string Kind, Name, Path;
      std::getline(Cols, Kind, '\t');
      std::getline(Cols, Name, '\t');
      std::getline(Cols, Path, '\t');
      if (Kind == "miss_base")
        MissBases.push_back(readFileOrDie(A.Inputs + "/" + Path.substr(7)));
    }
  }
  if (MissBases.empty()) {
    std::fprintf(stderr, "perfbench: daemon_mix has no miss bases\n");
    std::exit(2);
  }

  // The oracle for every hot request, and a closed-form check of the run
  // entries, before any timing.
  std::map<std::pair<size_t, int>, Expect> HotExpect;
  for (size_t I = 0; I < Hot.size(); ++I)
    for (Kind K : {Check, Run, Analyze}) {
      if (K == Run && Hot[I].Fn.empty())
        continue;
      Request P{K, I, 0};
      Expect E = standalone(makeRequest(P, Hot, MissBases));
      if (K == Run && E.Out != Hot[I].Fn + "(...) = " +
                                   std::to_string(Hot[I].Want) + "\n") {
        std::fprintf(stderr, "perfbench: %s: standalone run printed '%s'\n",
                     Hot[I].Name.c_str(), E.Out.c_str());
        std::exit(2);
      }
      HotExpect[{I, K}] = E;
    }

  TraceSession Session(TraceConfig{TraceCapacity});
  double PhaseMs = A.Trace ? A.Seconds * 500 : A.Seconds * 1000;
  Phase Untraced, Traced;
  Mix Gen(A.Seed, Hot, MissBases.size());

  std::unique_ptr<Server> S;
  Calibration SetupCal, PhaseCal, TracedCal;
  double SetupS = timeSetup(
      15,
      [&] {
        if (S)
          stopServer(S);
        S = startServer(A, nullptr, Hot);
      },
      SetupCal);
  drive(A, Untraced, PhaseMs, Gen, nullptr, Hot, MissBases, PhaseCal);
  Untraced.ServerMetrics = S->metricsSnapshot();
  stopServer(S);
  TraceBuffer *MainTB =
      A.Trace ? &Session.registerThread(1, "perfbench-main") : nullptr;
  if (A.Trace) {
    S = startServer(A, &Session, Hot);
    RuntimeMetrics Warm = S->metricsSnapshot();
    drive(A, Traced, PhaseMs, Gen, MainTB, Hot, MissBases, TracedCal);
    Traced.ServerMetrics = S->metricsSnapshot();
    // The traced phase's own cache traffic, without the warm-up's.
    Traced.ServerMetrics.CacheHits -= Warm.CacheHits;
    Traced.ServerMetrics.CacheMisses -= Warm.CacheMisses;
    stopServer(S);
  }

  // Verify every response against the standalone pipeline. Misses are
  // compiled here, after the load, on their exact source text.
  CompileLayers Layers;
  std::vector<double> ByKind[NumKinds], CalByKind[NumKinds],
      TracedByKind[NumKinds], All;
  std::vector<std::vector<double>> CalByClass(Gen.classes());
  double SloHits = 0;
  for (Phase *Ph : {&Untraced, &Traced}) {
    bool IsTraced = Ph == &Traced;
    for (size_t I = 0; I < Ph->Sent.size(); ++I) {
      const Request &P = Ph->Sent[I];
      const Outcome &O = Ph->Results[I];
      ++R.Attempted;
      Expect E;
      if (P.K == Miss) {
        WireRequest Req = makeRequest(P, Hot, MissBases);
        E = standalone(Req);
        if (IsTraced) {
          TracedBuild B = tracedBuild(Req.Source, PipelineOptions{});
          Layers.add(runStages(Req.Source, PipelineOptions{}, MainTB, P.Id),
                     B);
        }
      } else {
        E = HotExpect[{P.Src, P.K}];
      }
      bool Correct = O.Answered && O.Resp.ErrorCode.empty() &&
                     O.Resp.Exit == E.Exit && O.Resp.Out == E.Out &&
                     O.Resp.Err == E.Err;
      if (!Correct)
        R.fail(std::string(KindNames[P.K]) + " request " +
               std::to_string(P.Id) + ": " +
               (!O.Answered ? "unanswered: " + O.Error
                : !O.Resp.ErrorCode.empty()
                    ? "refused: " + O.Resp.ErrorCode + " " +
                          O.Resp.ErrorMessage
                    : "response differs from the standalone pipeline"));
      if (IsTraced) {
        TracedByKind[P.K].push_back(O.CalMs);
        continue;
      }
      ByKind[P.K].push_back(O.LatencyMs);
      CalByKind[P.K].push_back(O.CalMs);
      CalByClass[Mix::classOf(P, Hot.size())].push_back(O.CalMs);
      All.push_back(O.LatencyMs);
      if (Correct && O.LatencyMs <= SloMs)
        ++SloHits;
    }
  }

  for (int K = 0; K < NumKinds; ++K) {
    if (ByKind[K].empty())
      continue;
    Tail T = tailOf(ByKind[K]);
    char Line[192];
    std::snprintf(Line, sizeof(Line),
                  "%-8s median %9.4f ms   p%.1f %9.4f ms   (%zu samples)   "
                  "calibrated median %9.4f ms",
                  KindNames[K], median(ByKind[K]), T.Percentile, T.Value,
                  T.Samples, median(CalByKind[K]));
    R.detail(Line);
  }
  size_t UntracedN = Untraced.Sent.size();
  R.DaemonRatePerS =
      Untraced.Ms > 0 ? static_cast<double>(UntracedN) / (Untraced.Ms / 1000)
                      : 0;
  Tail AllTail = tailOf(All);
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "closed loop, 1 client: %zu requests, %.0f req/s, latency "
                "limit %.0f ms, cache budget %zu bytes",
                UntracedN, R.DaemonRatePerS, SloMs, CacheBytes);
  R.detail(Line);
  R.detailMetric("daemon_ms_p50", median(All), "ms");
  R.detailMetric("daemon_ms_p99", nearestRank(All, 0.99), "ms");
  std::snprintf(Line, sizeof(Line), "daemon tail: p%.2f %.4f ms (%zu samples)",
                AllTail.Percentile, AllTail.Value, AllTail.Samples);
  R.detail(Line);
  R.detailMetric("daemon_slo_ratio",
                 UntracedN ? SloHits / static_cast<double>(UntracedN) : 0,
                 "ratio");
  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.detailMetric("reference median", PhaseCal.medianRefMs(), "ms");
  R.detailMetric("reference samples", static_cast<double>(PhaseCal.samples()),
                 "count");
  reportLatency(R, CalByClass, Gen.shares());
  if (!A.Trace)
    return R;

  // Per-layer figures of the traced phase. The compile layers are those of
  // what the workload compiles: the hot set (its warm-up builds; analyze
  // recompiles the same sources) and the traced misses.
  for (size_t I = 0; I < Hot.size(); ++I) {
    TracedBuild B = tracedBuild(Hot[I].Source, PipelineOptions{});
    Layers.add(runStages(Hot[I].Source, PipelineOptions{}, MainTB, I + 1), B);
  }
  Layers.report(R);
  const RuntimeMetrics &SM = Traced.ServerMetrics;
  double Lookups = static_cast<double>(SM.CacheHits + SM.CacheMisses);
  R.layer("server.cache_hit_ratio",
          Lookups > 0 ? static_cast<double>(SM.CacheHits) / Lookups : 0,
          "ratio");
  R.layer("server.cache_misses", static_cast<double>(SM.CacheMisses),
          "count");
  R.layer("server.requests_rejected", static_cast<double>(SM.RequestsRejected),
          "count");
  R.layer("vm.instructions", static_cast<double>(SM.VmInstructions), "count");
  R.layer("vm.ic_hit_ratio",
          SM.IcHits + SM.IcMisses
              ? static_cast<double>(SM.IcHits) /
                    static_cast<double>(SM.IcHits + SM.IcMisses)
              : 0,
          "ratio");
  R.layer("runtime.steps", static_cast<double>(SM.Steps), "count");
  R.layer("runtime.allocations", static_cast<double>(SM.Allocations),
          "count");
  R.layer("runtime.reservation_checks",
          static_cast<double>(SM.ReservationChecks), "count");
  R.layer("runtime.disconnect_checks",
          static_cast<double>(SM.DisconnectChecks), "count");
  R.layer("runtime.disconnect_visited",
          static_cast<double>(SM.DisconnectObjectsVisited), "count");
  R.layer("runtime.disconnect_elided_ratio",
          SM.DisconnectChecks ? static_cast<double>(SM.DisconnectElided) /
                                    static_cast<double>(SM.DisconnectChecks)
                              : 0,
          "ratio");

  // Spans: the client's own, and the server's server.request /
  // cache.lookup read as the program emits them. A server span belongs
  // to the client request whose span contains it (latest start wins when
  // two overlap). Server spans before the first client request are the
  // warm-up's and are left out.
  std::vector<SpanEvent> Spans = collectSpans(Session);
  std::vector<const SpanEvent *> Clients;
  std::vector<double> ConnectMs, RequestMs, LookupMs, WaitMs;
  for (const SpanEvent &E : Spans) {
    if (E.Name == "client.request")
      Clients.push_back(&E);
    else if (E.Name == "client.connect")
      ConnectMs.push_back(E.DurUs / 1000);
  }
  std::sort(Clients.begin(), Clients.end(),
            [](const SpanEvent *X, const SpanEvent *Y) {
              return X->StartUs < Y->StartUs;
            });
  const double LoadStartUs = Clients.empty() ? 0 : Clients[0]->StartUs;
  for (const SpanEvent &E : Spans)
    if (E.Name == "cache.lookup" && E.StartUs >= LoadStartUs)
      LookupMs.push_back(E.DurUs / 1000);
  // Self time: server.request minus the cache.lookup nested in it on the
  // worker's thread.
  std::vector<double> Self = selfTimesUs(Spans);
  std::vector<double> RequestSelfMs;
  size_t Matched = 0, ServerSpans = 0;
  for (size_t SI = 0; SI < Spans.size(); ++SI) {
    const SpanEvent &E = Spans[SI];
    if (E.Name != "server.request" || E.StartUs < LoadStartUs)
      continue;
    ++ServerSpans;
    RequestMs.push_back(E.DurUs / 1000);
    RequestSelfMs.push_back(Self[SI] / 1000);
    const SpanEvent *Owner = nullptr;
    for (const SpanEvent *C : Clients) {
      if (C->StartUs > E.StartUs)
        break;
      if (C->StartUs + C->DurUs >= E.StartUs + E.DurUs)
        Owner = C;
    }
    if (Owner) {
      ++Matched;
      WaitMs.push_back((Owner->DurUs - E.DurUs) / 1000);
    }
  }
  R.layer("server.connect_ms_p50", median(ConnectMs), "ms");
  R.layer("server.request_ms_p50", median(RequestMs), "ms");
  R.detailMetric("server.request self p50", median(RequestSelfMs), "ms");
  R.layer("server.cache_lookup_ms_p50", median(LookupMs), "ms");
  R.layer("server.wait_ms_p50", median(WaitMs), "ms");
  R.detailMetric("server.request spans matched to a client request",
                 ServerSpans ? static_cast<double>(Matched) /
                                   static_cast<double>(ServerSpans)
                             : 0,
                 "ratio");

  // Tracing overhead: the sum of per-kind calibrated medians, traced over
  // untraced.
  double U = 0, T = 0;
  for (int K = 0; K < NumKinds; ++K)
    if (!CalByKind[K].empty() && !TracedByKind[K].empty()) {
      U += median(CalByKind[K]);
      T += median(TracedByKind[K]);
    }
  R.layer("trace.overhead_ratio", U > 0 ? T / U - 1 : 0, "ratio");
  writeTrace(Session, A);
  return R;
}

} // namespace perfbench
