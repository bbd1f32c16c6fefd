//===- seminal_cli.cpp - Command-line front end ----------------------------==//
//
// A small compiler-like driver: check a mini-Caml file and, when it is
// ill-typed, print the conventional message followed by the ranked
// search-based suggestions. The shape a course staff would actually
// deploy (the paper's data collection wrapped the compiler the same
// way).
//
// Stream discipline: stdout carries the result -- human-readable
// messages normally, exactly one RunReport JSON document under --json --
// and nothing else; every diagnostic, progress note and observability
// rendering (--metrics, trace summaries) goes to stderr. A script can
// always pipe stdout without scrubbing.
//
// Usage:
//   seminal_cli [--no-triage] [--max-suggestions=N] [--quiet] [--json]
//               [--trace=FILE] [--telemetry=FILE] [--explore=FILE.html]
//               [--metrics] [--slice] FILE.ml
//   seminal_cli --expr 'let x = 1 + "two"'
//   seminal_cli --connect=/tmp/seminal.sock --session=mybuf FILE.ml
//
// With --connect the check runs inside a seminal_serverd daemon instead
// of in-process: resubmitting after an edit reuses the session's warm
// search state, so the editor loop only pays for what changed. Output
// and exit codes match the local mode.
//
//===----------------------------------------------------------------------===//

#include "core/Seminal.h"
#include "minicaml/Hash.h"
#include "obs/Explorer.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace seminal;

namespace {

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--no-triage] [--max-suggestions=N] [--quiet] "
               "[--json] [--trace=FILE] [--telemetry=FILE] "
               "[--explore=FILE.html] [--metrics] [--slice] FILE.ml\n"
               "       %s --expr 'PROGRAM TEXT'\n"
               "  --json         print the run's RunReport as one JSON\n"
               "                 document on stdout instead of the\n"
               "                 human-readable messages (schema in\n"
               "                 DESIGN.md section 10)\n"
               "  --trace=FILE   write a span trace of the run; FILE.json\n"
               "                 is Chrome trace_event format (load it in\n"
               "                 Perfetto / chrome://tracing), FILE.jsonl\n"
               "                 is one event object per line\n"
               "  --telemetry=FILE\n"
               "                 write the run's RunReport JSON to FILE\n"
               "  --explore=FILE.html\n"
               "                 write a self-contained search-explorer\n"
               "                 page (search tree, oracle-call timeline,\n"
               "                 slice overlay, ranked suggestions); opens\n"
               "                 offline in any browser\n"
               "  --metrics      print per-layer latency/shape series,\n"
               "                 derived from a trace of the run (stderr)\n"
               "  --slice        compute and print the provenance error\n"
               "                 slice (the program points that jointly\n"
               "                 cause the failure); also boosts in-slice\n"
               "                 suggestions in the ranking\n"
               "  --connect=PATH run the check in the seminal_serverd\n"
               "                 daemon listening on Unix socket PATH;\n"
               "                 repeated checks of the same --session\n"
               "                 reuse its warm search state\n"
               "  --session=NAME session name for --connect (default:\n"
               "                 \"default\")\n"
               "  --server-metrics[=FMT]\n"
               "                 with --connect: fetch the daemon's live\n"
               "                 metrics snapshot and print it on stdout\n"
               "                 (FMT: json, the default, or prometheus);\n"
               "                 no source file needed\n"
               "  --ops-snapshot=FILE\n"
               "                 with --explore: embed a saved metrics\n"
               "                 snapshot (JSON from --server-metrics or\n"
               "                 GET /metrics.json) as a live-ops panel\n"
               "  --profile=FILE one-shot profile of this run: sampled\n"
               "                 span stacks + exact per-phase CPU.\n"
               "                 FILE.json gets the snapshot object; any\n"
               "                 other name gets flamegraph.pl collapsed\n"
               "                 stacks (pipe into flamegraph.pl)\n"
               "  --profile-snapshot=FILE\n"
               "                 with --explore: embed a saved profile\n"
               "                 (JSON from --profile=FILE.json or\n"
               "                 /debug/profile?format=json) as a\n"
               "                 flamegraph panel\n",
               Prog, Prog);
}

bool endsWith(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

// One round-trip on the daemon's Unix socket: send \p Request (one
// line), read one reply line into \p Reply. Returns false after
// printing the failure to stderr.
bool socketRoundTrip(const std::string &SocketPath, const std::string &Request,
                     std::string &Reply) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("socket");
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", SocketPath.c_str());
    ::close(Fd);
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::fprintf(stderr, "cannot connect to '%s': %s\n", SocketPath.c_str(),
                 std::strerror(errno));
    ::close(Fd);
    return false;
  }
  size_t Off = 0;
  while (Off < Request.size()) {
    ssize_t N = ::send(Fd, Request.data() + Off, Request.size() - Off, 0);
    if (N <= 0) {
      std::fprintf(stderr, "send failed: %s\n", std::strerror(errno));
      ::close(Fd);
      return false;
    }
    Off += size_t(N);
  }
  Reply.clear();
  char Chunk[4096];
  while (Reply.find('\n') == std::string::npos) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Reply.append(Chunk, size_t(N));
  }
  ::close(Fd);
  size_t Eol = Reply.find('\n');
  if (Eol == std::string::npos) {
    std::fprintf(stderr, "daemon closed the connection without replying\n");
    return false;
  }
  Reply.resize(Eol);
  return true;
}

// --server-metrics: fetch the daemon's live ops snapshot and print it.
int fetchServerMetrics(const std::string &SocketPath,
                       const std::string &Format) {
  std::string Req = "{\"method\":\"metrics\",\"id\":1";
  if (Format == "prometheus")
    Req += ",\"format\":\"prometheus\"";
  Req += "}\n";
  std::string Reply;
  if (!socketRoundTrip(SocketPath, Req, Reply))
    return 2;
  json::ParseResult P = json::parse(Reply);
  if (!P.ok() || !P.Doc->isObject()) {
    std::fprintf(stderr, "unparseable daemon reply: %s\n", Reply.c_str());
    return 2;
  }
  if (!P.Doc->getBool("ok", false)) {
    std::fprintf(stderr, "daemon error: %s\n",
                 P.Doc->getString("error", "unknown").c_str());
    return 2;
  }
  if (Format == "prometheus") {
    std::printf("%s", P.Doc->getString("exposition").c_str());
    return 0;
  }
  // Print the snapshot verbatim (it is the response's final member), so
  // the output round-trips into --ops-snapshot without re-rendering.
  size_t Pos = Reply.find("\"metrics\":");
  if (!P.Doc->member("metrics") || Pos == std::string::npos) {
    std::fprintf(stderr, "daemon reply carried no metrics\n");
    return 2;
  }
  std::printf("%s\n",
              Reply.substr(Pos + 10, Reply.size() - Pos - 11).c_str());
  return 0;
}

// Client mode: ship one check request to a seminal_serverd daemon over
// its Unix socket and render the reply the way the local path would.
int runConnected(const std::string &SocketPath, const std::string &Session,
                 const std::string &Source, size_t MaxSuggestions, bool Quiet,
                 bool Json) {
  std::string Req = "{\"method\":\"check\",\"id\":1,\"session\":\"";
  Req += jsonEscape(Session);
  Req += "\",\"source\":\"";
  Req += jsonEscape(Source);
  Req += "\"";
  if (MaxSuggestions) {
    Req += ",\"max_suggestions\":";
    Req += std::to_string(MaxSuggestions);
  }
  if (Json)
    Req += ",\"report\":true";
  Req += "}\n";
  std::string Reply;
  if (!socketRoundTrip(SocketPath, Req, Reply))
    return 2;

  json::ParseResult P = json::parse(Reply);
  if (!P.ok() || !P.Doc->isObject()) {
    std::fprintf(stderr, "unparseable daemon reply: %s\n", Reply.c_str());
    return 2;
  }
  const json::Value &Doc = *P.Doc;
  if (!Doc.getBool("ok", false)) {
    std::fprintf(stderr, "daemon error: %s\n",
                 Doc.getString("error", "unknown").c_str());
    return 2;
  }

  std::string SyntaxError = Doc.getString("syntax_error");
  if (!SyntaxError.empty()) {
    std::printf("%s\n", SyntaxError.c_str());
    return 1;
  }
  if (Json) {
    // Machine mode mirrors the local --json contract: stdout is exactly
    // one JSON document (here the daemon's RunReport). The report is the
    // response's final member, spliced in as raw JSON text; print the
    // slice verbatim to avoid a lossy round-trip through doubles.
    size_t Pos = Reply.find("\"report\":");
    if (!Doc.member("report") || Pos == std::string::npos) {
      std::fprintf(stderr, "daemon reply carried no report\n");
      return 2;
    }
    std::printf("%s\n",
                Reply.substr(Pos + 9, Reply.size() - Pos - 10).c_str());
    return Doc.getBool("input_typechecks", false) ? 0 : 1;
  }
  if (Doc.getBool("input_typechecks", false)) {
    if (!Quiet)
      std::printf("No type errors.\n");
    return 0;
  }
  if (!Quiet) {
    std::printf("Type-checker:\n  %s\n\n",
                Doc.getString("conventional").c_str());
    int64_t Calls = Doc.getInt("oracle_calls", 0);
    std::printf("Suggestions (best first, %lld oracle calls):\n\n",
                static_cast<long long>(Calls));
  }
  const json::Value *Suggestions = Doc.member("suggestions");
  if (!Suggestions || !Suggestions->isArray() ||
      Suggestions->arrayValue().empty()) {
    std::printf("%s\n", Doc.getString("conventional").c_str());
  } else {
    size_t I = 0;
    for (const json::Value &S : Suggestions->arrayValue()) {
      std::printf("[%zu] %s\n\n", ++I, S.getString("message").c_str());
      if (Quiet)
        break;
    }
  }
  if (!Quiet) {
    if (const json::Value *Warm = Doc.member("warm"))
      std::fprintf(stderr,
                   "warm reuse: %lld prefix hits, %lld seed adoptions, "
                   "%lld conv memo hits%s\n",
                   static_cast<long long>(Warm->getInt("prefix_hits", 0)),
                   static_cast<long long>(Warm->getInt("seed_adoptions", 0)),
                   static_cast<long long>(Warm->getInt("conv_memo_hits", 0)),
                   Warm->getBool("replayed", false)
                       ? "; replayed the session's previous answer"
                       : "");
  }
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  SeminalOptions Opts;
  std::string Source;
  std::string SourceName = "<expr>";
  std::string TracePath;
  std::string TelemetryPath;
  std::string ExplorePath;
  std::string ConnectPath;
  std::string SessionName = "default";
  std::string OpsSnapshotPath;
  std::string ProfilePath;
  std::string ProfileSnapshotPath;
  bool HaveSource = false;
  bool Quiet = false;
  bool Json = false;
  bool WantMetrics = false;
  bool WantSlice = false;
  bool WantServerMetrics = false;
  std::string ServerMetricsFormat = "json";

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--no-triage") == 0) {
      Opts.Search.EnableTriage = false;
    } else if (std::strncmp(Arg, "--max-suggestions=", 18) == 0) {
      int N = std::atoi(Arg + 18);
      if (N <= 0) {
        std::fprintf(stderr, "--max-suggestions needs a positive count\n");
        usage(Argv[0]);
        return 2;
      }
      Opts.MaxSuggestions = size_t(N);
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Arg, "--json") == 0) {
      Json = true;
    } else if (std::strncmp(Arg, "--trace=", 8) == 0) {
      TracePath = Arg + 8;
      if (TracePath.empty()) {
        std::fprintf(stderr, "--trace needs a file path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--telemetry=", 12) == 0) {
      TelemetryPath = Arg + 12;
      if (TelemetryPath.empty()) {
        std::fprintf(stderr, "--telemetry needs a file path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--explore=", 10) == 0) {
      ExplorePath = Arg + 10;
      if (ExplorePath.empty()) {
        std::fprintf(stderr, "--explore needs a file path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strcmp(Arg, "--metrics") == 0) {
      WantMetrics = true;
    } else if (std::strcmp(Arg, "--slice") == 0) {
      WantSlice = true;
      Opts.Search.ComputeSlice = true;
    } else if (std::strncmp(Arg, "--connect=", 10) == 0) {
      ConnectPath = Arg + 10;
      if (ConnectPath.empty()) {
        std::fprintf(stderr, "--connect needs a socket path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--session=", 10) == 0) {
      SessionName = Arg + 10;
      if (SessionName.empty()) {
        std::fprintf(stderr, "--session needs a name\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strcmp(Arg, "--server-metrics") == 0) {
      WantServerMetrics = true;
    } else if (std::strncmp(Arg, "--server-metrics=", 17) == 0) {
      WantServerMetrics = true;
      ServerMetricsFormat = Arg + 17;
      if (ServerMetricsFormat != "json" &&
          ServerMetricsFormat != "prometheus") {
        std::fprintf(stderr,
                     "--server-metrics: format must be json or prometheus\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--ops-snapshot=", 15) == 0) {
      OpsSnapshotPath = Arg + 15;
      if (OpsSnapshotPath.empty()) {
        std::fprintf(stderr, "--ops-snapshot needs a file path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--profile=", 10) == 0) {
      ProfilePath = Arg + 10;
      if (ProfilePath.empty()) {
        std::fprintf(stderr, "--profile needs a file path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strncmp(Arg, "--profile-snapshot=", 19) == 0) {
      ProfileSnapshotPath = Arg + 19;
      if (ProfileSnapshotPath.empty()) {
        std::fprintf(stderr, "--profile-snapshot needs a file path\n");
        usage(Argv[0]);
        return 2;
      }
    } else if (std::strcmp(Arg, "--expr") == 0 && I + 1 < Argc) {
      Source = Argv[++I];
      HaveSource = true;
    } else if (std::strcmp(Arg, "--help") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg);
      usage(Argv[0]);
      return 2;
    } else {
      std::ifstream In(Arg);
      if (!In) {
        std::fprintf(stderr, "cannot open '%s'\n", Arg);
        return 2;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Source = Buf.str();
      SourceName = Arg;
      HaveSource = true;
    }
  }
  if (WantServerMetrics) {
    if (ConnectPath.empty()) {
      std::fprintf(stderr, "--server-metrics needs --connect=PATH\n");
      usage(Argv[0]);
      return 2;
    }
    return fetchServerMetrics(ConnectPath, ServerMetricsFormat);
  }
  std::string OpsJson;
  if (!OpsSnapshotPath.empty()) {
    std::ifstream In(OpsSnapshotPath);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", OpsSnapshotPath.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    OpsJson = Buf.str();
    json::ParseResult P = json::parse(OpsJson);
    if (!P.ok()) {
      std::fprintf(stderr, "--ops-snapshot: '%s' is not valid JSON: %s\n",
                   OpsSnapshotPath.c_str(), P.Error.c_str());
      return 2;
    }
  }
  std::string ProfileJson;
  if (!ProfileSnapshotPath.empty()) {
    std::ifstream In(ProfileSnapshotPath);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", ProfileSnapshotPath.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ProfileJson = Buf.str();
    json::ParseResult P = json::parse(ProfileJson);
    if (!P.ok()) {
      std::fprintf(stderr, "--profile-snapshot: '%s' is not valid JSON: %s\n",
                   ProfileSnapshotPath.c_str(), P.Error.c_str());
      return 2;
    }
  }
  if (!HaveSource) {
    usage(Argv[0]);
    return 2;
  }
  if (!ConnectPath.empty()) {
    if (!ProfilePath.empty()) {
      std::fprintf(stderr, "--profile profiles a local run; with --connect "
                           "use the daemon's profile verb or "
                           "/debug/profile instead\n");
      return 2;
    }
    return runConnected(ConnectPath, SessionName, Source, Opts.MaxSuggestions,
                        Quiet, Json);
  }

  // The trace sink outlives the run; it is attached by pointer and
  // exported (or summarized as --metrics) after the report is in hand.
  // Suggestions are byte-identical with and without it -- it only
  // observes.
  TraceSink Sink;
  bool WantReport = Json || !TelemetryPath.empty() || !ExplorePath.empty();
  bool WantTrace = !TracePath.empty() || !ExplorePath.empty();
  if (WantTrace || WantMetrics)
    Opts.Search.Trace = &Sink;

  // One-shot profiling: the profiler starts empty in this process, so
  // the cumulative snapshot after the run *is* the run's window.
  if (!ProfilePath.empty())
    prof::profiler().start(prof::Profiler::Options());

  uint64_t CpuStart = prof::threadCpuNs();
  auto WallStart = std::chrono::steady_clock::now();
  SeminalReport Report = runSeminalOnSource(Source, Opts);
  double WallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - WallStart)
                           .count();
  uint64_t CpuNs = prof::threadCpuNs() - CpuStart;

  if (!ProfilePath.empty()) {
    prof::ProfileSnapshot Snap = prof::profiler().snapshot();
    prof::profiler().stop();
    std::ofstream Out(ProfilePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write profile to '%s'\n",
                   ProfilePath.c_str());
      return 2;
    }
    if (endsWith(ProfilePath, ".json"))
      Snap.writeJson(Out);
    else
      Snap.writeCollapsed(Out);
    if (!Quiet)
      std::fprintf(stderr,
                   "wrote profile (%llu samples, %zu stacks) to %s\n",
                   static_cast<unsigned long long>(Snap.Samples),
                   Snap.Stacks.size(), ProfilePath.c_str());
  }

  if (!TracePath.empty() && !Report.SyntaxError) {
    std::ofstream Out(TracePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write trace to '%s'\n", TracePath.c_str());
      return 2;
    }
    if (endsWith(TracePath, ".jsonl"))
      Sink.writeJsonl(Out);
    else
      Sink.writeChromeTrace(Out);
    if (!Quiet)
      std::fprintf(stderr, "wrote %zu trace events to %s\n",
                   Sink.eventCount(), TracePath.c_str());
  }

  obs::RunReport Run;
  if (WantReport) {
    Run.ProgramId = SourceName;
    if (!Report.SyntaxError) {
      caml::ParseResult PR = caml::parseProgram(Source);
      if (PR.ok())
        Run.SourceHash = caml::hashProgram(*PR.Prog);
    }
    fillRunReport(Run, Report, WallSeconds);
    Run.CpuNs = CpuNs; // the measurer stamps the CPU clock

    if (!TelemetryPath.empty()) {
      std::ofstream Out(TelemetryPath);
      if (!Out) {
        std::fprintf(stderr, "cannot write telemetry to '%s'\n",
                     TelemetryPath.c_str());
        return 2;
      }
      Run.writeJson(Out, /*Pretty=*/true);
      Out << "\n";
      if (!Quiet)
        std::fprintf(stderr, "wrote run report to %s\n",
                     TelemetryPath.c_str());
    }
    if (!ExplorePath.empty()) {
      std::ofstream Out(ExplorePath);
      if (!Out) {
        std::fprintf(stderr, "cannot write explorer to '%s'\n",
                     ExplorePath.c_str());
        return 2;
      }
      obs::ExplorerOptions EO;
      EO.Title = "SEMINAL search explorer: " + SourceName;
      EO.OpsJson = OpsJson;
      EO.ProfileJson = ProfileJson;
      obs::writeExplorerHtml(Out, Sink.snapshot(), Run, Source, EO);
      if (!Quiet)
        std::fprintf(stderr, "wrote search explorer to %s\n",
                     ExplorePath.c_str());
    }
  }

  int Exit;
  if (Report.SyntaxError)
    Exit = 1;
  else
    Exit = Report.InputTypechecks ? 0 : 1;

  if (Json) {
    // Machine mode: stdout is exactly one JSON document.
    std::ostringstream OS;
    Run.writeJson(OS, /*Pretty=*/true);
    std::printf("%s\n", OS.str().c_str());
  } else if (Report.SyntaxError) {
    std::printf("%s\n", Report.bestMessage().c_str());
  } else if (Report.InputTypechecks) {
    if (!Quiet)
      std::printf("No type errors.\n");
  } else {
    if (!Quiet) {
      std::printf("Type-checker:\n  %s\n\n",
                  Report.conventionalMessage().c_str());
      if (WantSlice) {
        if (Report.Slice)
          std::printf("%s\n", Report.Slice->render().c_str());
        else
          std::printf("no error slice (failure not sliceable)\n\n");
      }
      std::printf("Suggestions (best first, %zu oracle calls):\n\n",
                  Report.OracleCalls);
    }
    if (Report.Suggestions.empty()) {
      std::printf("%s\n", Report.bestMessage().c_str());
    } else {
      for (size_t I = 0; I < Report.Suggestions.size(); ++I) {
        std::printf("[%zu] %s\n\n", I + 1,
                    renderSuggestion(Report.Suggestions[I]).c_str());
        if (Quiet)
          break;
      }
    }
  }

  // Observability renderings are diagnostics, never results: stderr, so
  // they cannot interleave with --json output or piped messages.
  if (!Quiet && WantTrace && !Report.SyntaxError)
    std::fprintf(stderr, "%s", Sink.summarize().render().c_str());
  if (WantMetrics) {
    Metrics Metric = Metrics::fromTrace(Sink.snapshot());
    if (!Metric.empty())
      std::fprintf(stderr, "%s", Metric.render().c_str());
  }
  return Exit;
}
