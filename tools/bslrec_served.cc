// bslrec_served — network serving daemon for the front door.
//
// Loads a dataset and a model checkpoint, freezes the model into a
// serving snapshot behind the concurrent front door
// (serve::ServingFrontEnd), and serves top-k requests over TCP through
// serve::NetServer: a non-blocking epoll loop whose connection
// handlers do no scoring — every parsed line becomes a front-door
// Submit, so micro-batching, admission control, deadlines, lanes, and
// brownout all apply to socket traffic exactly as they do in-process.
//
// The protocol is the newline-delimited grammar documented atop
// src/serve/wire.h (both the TOPK wire form and the legacy
// '<user> [<k>] [all]' CLI form are accepted):
//   TOPK 3 10 LANE=interactive DEADLINE_US=5000 ID=a1
//   -> OK a1 none seq=1 17:0.812345 4:0.798101 ...
//   -> ERR a1 OVERLOAD retry_after_us=1000        (shed)
//   -> ERR a1 DEADLINE stage=queue                (SLO missed)
//   -> ERR a1 BAD_REQUEST <detail>                (malformed)
//
// SIGINT/SIGTERM stop the server gracefully: in-flight requests are
// answered and flushed before the process exits, then the front-door
// and transport stats print to stderr.
//
// Examples:
//   bslrec_train --dataset=yelp --loss=BSL --save=model.ckpt
//   bslrec_served --dataset=yelp --load=model.ckpt --port=7070
//   printf 'TOPK 3 10 ID=x\n' | nc 127.0.0.1 7070
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "serve/net_server.h"
#include "serve/serving_frontend.h"
#include "tool_util.h"

namespace {

using namespace bslrec;  // NOLINT: tool-local convenience

// Transport flags; the model, scoring, runtime and front-door groups
// are tools::ServingFlags.
struct TransportFlags {
  std::string bind = "127.0.0.1";
  uint16_t port = 7070;  // 0 = ephemeral (printed on startup)
  int backlog = 128;
  size_t io_threads = 1;
  size_t max_line = 4096;

  tools::FlagResult Parse(const std::string& key, const std::string& value) {
    bool ok = true;
    if (key == "bind") {
      bind = value;
    } else if (key == "port") {
      ok = tools::ReadCount(key, value, &port);
    } else if (key == "backlog") {
      ok = tools::ReadCount(key, value, &backlog);
    } else if (key == "io-threads") {
      ok = tools::ReadCount(key, value, &io_threads);
    } else if (key == "max-line") {
      ok = tools::ReadCount(key, value, &max_line);
    } else {
      return tools::FlagResult::kUnknown;
    }
    return ok ? tools::FlagResult::kOk : tools::FlagResult::kBad;
  }
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: bslrec_served [--dataset=yelp|amazon|gowalla|ml1m]\n"
      "                     [--train-file=F --test-file=F]\n"
      "                     "
      "[--backbone=mf|ngcf|lightgcn|sgl|simgcl|lightgcl]\n"
      "                     [--dim=N] [--layers=N] [--load=CKPT]\n"
      "                     [--k=N] [--max-k=N] [--shard-items=N]\n"
      "                     [--no-cache] [--ann] [--quantize]\n"
      "                     [--nlist=N] [--nprobe=P]\n"
      "                     [--threads=N] [--seed=N]\n"
      "                     [--batch=N] [--flush-us=D] [--max-queue=N]\n"
      "                     [--overflow=block|shed-newest|shed-oldest]\n"
      "                     [--deadline-us=D] [--brownout-nprobe=P]\n"
      "                     [--bind=ADDR] [--port=N] [--backlog=N]\n"
      "                     [--io-threads=N] [--max-line=N]\n"
      "\n"
      "Serves top-k recommendations over TCP: newline-delimited\n"
      "requests per the grammar atop src/serve/wire.h —\n"
      "  TOPK <user> <k> [FILTER=seen|none] [LANE=interactive|bulk]\n"
      "       [DEADLINE_US=n] [ID=token]\n"
      "or the legacy '<user> [<k>] [all]' CLI form. Responses:\n"
      "  OK <id> <degrade_mode> seq=<n> <item>:<score> ...\n"
      "  ERR <id> OVERLOAD retry_after_us=<n> | DEADLINE stage=<s> |\n"
      "      BAD_REQUEST <detail> | INTERNAL <detail>\n"
      "SIGINT/SIGTERM drain in-flight requests, then exit.\n"
      "Every count flag takes a non-negative integer.\n"
      "\n"
      "%s"
      "\n"
      "Transport flags:\n"
      "--bind:        listen address (default 127.0.0.1)\n"
      "--port:        listen port (0 = ephemeral; the bound port is\n"
      "               printed on startup)\n"
      "--backlog:     listen(2) backlog\n"
      "--io-threads:  epoll event-loop threads (>= 1); connections are\n"
      "               assigned round-robin. Handlers never score — all\n"
      "               scoring happens behind the front door\n"
      "--max-line:    longest accepted request line in bytes; a\n"
      "               connection exceeding it without a newline is\n"
      "               answered BAD_REQUEST and hung up\n",
      tools::kServingFlagsHelp);
}

bool ParseFlags(int argc, char** argv, tools::ServingFlags& flags,
                TransportFlags& transport) {
  const auto extra = [&](const std::string& key, const std::string& value) {
    return transport.Parse(key, value);
  };
  if (!tools::ParseServingArgs(argc, argv, flags, extra, Usage)) return false;
  if (transport.io_threads == 0 || transport.max_line == 0) {
    std::fprintf(stderr, "--io-threads and --max-line must be >= 1\n");
    return false;
  }
  return true;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

void ReportNetStats(const serve::NetServer::Stats& net) {
  std::fprintf(stderr,
               "net: %llu connections accepted (%llu closed), %llu lines, "
               "%llu requests, %llu bad, %llu ok / %llu err responses\n",
               static_cast<unsigned long long>(net.connections_accepted),
               static_cast<unsigned long long>(net.connections_closed),
               static_cast<unsigned long long>(net.lines),
               static_cast<unsigned long long>(net.requests),
               static_cast<unsigned long long>(net.bad_requests),
               static_cast<unsigned long long>(net.responses_ok),
               static_cast<unsigned long long>(net.responses_err));
}

}  // namespace

int main(int argc, char** argv) {
  tools::ServingFlags flags;
  TransportFlags transport;
  if (!ParseFlags(argc, argv, flags, transport)) {
    Usage();
    return 2;
  }

  tools::ServingModel m;
  if (!tools::LoadServingModel(flags, m)) return 1;

  const serve::FrontEndConfig fe = flags.ToFrontEndConfig();
  serve::ServingFrontEnd frontend(*m.data, *m.model, fe);
  std::fprintf(stderr,
               "snapshot ready (%u users x %u items, dim %zu%s), "
               "front door: max_batch=%zu flush-us=%u\n",
               frontend.current_snapshot()->num_users(),
               frontend.current_snapshot()->num_items(),
               frontend.current_snapshot()->dim(), flags.ModeSuffix(),
               fe.max_batch, fe.flush_deadline_us);

  serve::NetServerConfig net;
  net.bind_address = transport.bind;
  net.port = transport.port;
  net.backlog = transport.backlog;
  net.io_threads = transport.io_threads;
  net.max_line_bytes = transport.max_line;
  net.default_k = flags.k;
  serve::NetServer server(frontend, net);
  if (!server.Start()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server.last_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "listening on %s:%u (%zu io threads)\n",
               transport.bind.c_str(), server.port(), transport.io_threads);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "stop requested, draining...\n");
  server.Stop();
  ReportNetStats(server.stats());
  tools::ReportFrontEndStats(frontend.stats());
  return 0;
}
