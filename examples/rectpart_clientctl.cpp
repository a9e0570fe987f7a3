// rectpart_clientctl: command-line client for the partition daemon.
//
//   ./rectpart_clientctl --socket=/tmp/rectpart.sock --op=ping
//   ./rectpart_clientctl --socket=... --op=solve --family=peak --n=256
//                        --m=64 --algo=jag-m-opt --deadline-ms=5
//                        --upgrade --wait-final
//   ./rectpart_clientctl --socket=... --op=solve --input=load.bin --m=32
//                        --lineage=sim-a
//   ./rectpart_clientctl --socket=... --op=counters
//   ./rectpart_clientctl --socket=... --op=metrics          # Prometheus text
//   ./rectpart_clientctl --socket=... --op=metrics --json   # telemetry JSON
//   ./rectpart_clientctl --socket=... --op=shutdown
//
// Exit status: 0 on an ok response, 1 on a daemon-side error response,
// 2 on usage/transport errors.
#include <cstdio>
#include <exception>

#include "io/matrix_io.hpp"
#include "service/client.hpp"
#include "util/flags.hpp"
#include "workloads/synthetic.hpp"

namespace {

void print_response(const rectpart::service::Response& r) {
  using rectpart::service::Response;
  if (!r.ok) {
    std::printf("error      : %s\n", r.error.c_str());
    return;
  }
  if (!r.counters_json.empty()) {
    std::printf("counters   : %s\n", r.counters_json.c_str());
    return;
  }
  if (r.algo.empty()) {  // ping / shutdown ack
    std::printf("ok\n");
    return;
  }
  std::printf("algorithm  : %s   (%.3f ms)%s\n", r.algo.c_str(), r.ms,
              r.final_reply ? "" : "   [non-final]");
  std::printf("processors : %lld\n", static_cast<long long>(r.m));
  std::printf("max load   : %lld\n", static_cast<long long>(r.lmax));
  std::printf("imbalance  : %.6f\n", r.imbalance);
  std::printf("cache hit  : %s\n", r.cache_hit ? "yes" : "no");
  if (r.deadline_return) std::printf("deadline   : fallback answer\n");
  if (!r.rebalance.empty())
    std::printf("rebalance  : %s\n", r.rebalance.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rectpart;
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::printf(
        "usage: %s --socket=PATH --op=solve|ping|counters|metrics|shutdown\n"
        "          [--retry-ms=R]  (connect retry budget)\n"
        "metrics:  Prometheus text exposition; --json prints the telemetry\n"
        "          snapshot as JSON instead\n"
        "solve:    [--input=FILE | --family=NAME --n=N --seed=S] --m=M\n"
        "          [--algo=NAME] [--deadline-ms=D] [--upgrade]\n"
        "          [--wait-final] [--lineage=NAME]\n"
        "          [--format=dense|coo] [--nnz=K]  (sparse: --input reads a\n"
        "          COO file; --family=powerlaw|mesh generates one)\n",
        flags.program().c_str());
    return 0;
  }
  const std::string socket_path = flags.get_string("socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket=PATH is required (see --help)\n",
                 flags.program().c_str());
    return 2;
  }
  const std::string op = flags.get_string("op", "ping");

  try {
    service::ServiceClient client(
        socket_path, static_cast<int>(flags.get_int("retry-ms", 0)));

    if (op == "ping") {
      service::Response r;
      try {
        r = client.ping_details();
      } catch (const std::exception&) {
        std::printf("unreachable\n");
        return 1;
      }
      std::printf("ok\n");
      if (!r.version.empty())
        std::printf("version    : %s\n", r.version.c_str());
      if (r.uptime_ms >= 0)
        std::printf("uptime     : %.1f s\n", r.uptime_ms / 1000.0);
      if (r.cache_instances >= 0)
        std::printf("cache      : %lld instances, %lld bytes\n",
                    static_cast<long long>(r.cache_instances),
                    static_cast<long long>(r.cache_bytes));
      return 0;
    }
    if (op == "counters") {
      std::printf("%s\n", client.counters_json().c_str());
      return 0;
    }
    if (op == "metrics") {
      const service::Response r = client.metrics();
      if (flags.get_bool("json", false))
        std::printf("%s\n", r.telemetry_json.c_str());
      else
        std::fputs(r.metrics_text.c_str(), stdout);
      return 0;
    }
    if (op == "shutdown") {
      client.request_shutdown();
      std::printf("ok\n");
      return 0;
    }
    if (op != "solve") {
      std::fprintf(stderr, "%s: unknown --op=%s\n", flags.program().c_str(),
                   op.c_str());
      return 2;
    }

    const std::string family = flags.get_string("family", "peak");
    const bool coo_mode = flags.get_string("format", "dense") == "coo" ||
                          family == "powerlaw" || family == "mesh";
    const std::string input = flags.get_string("input", "");

    LoadMatrix load;
    CooInstance coo;
    if (coo_mode) {
      if (!input.empty()) {
        try {
          coo = load_coo_binary(input);
        } catch (const std::exception&) {
          coo = load_coo_text(input);
        }
      } else {
        const int n = static_cast<int>(flags.get_int("n", 4096));
        coo = make_synthetic_coo(family, n, n, flags.get_int("nnz", 1 << 20),
                                 flags.get_int("seed", 42));
      }
    } else if (!input.empty()) {
      try {
        load = load_matrix_binary(input);
      } catch (const std::runtime_error&) {  // not RPM1; bad cells propagate
        load = load_matrix_text(input);
      }
    } else {
      const int n = static_cast<int>(flags.get_int("n", 256));
      load = make_synthetic(family, n, n, flags.get_int("seed", 42),
                            flags.get_double("delta", 1.2));
    }

    service::SolveOptions opt;
    opt.algo = flags.get_string("algo", "jag-m-heur");
    opt.m = flags.get_int("m", 64);
    if (flags.has("deadline-ms"))
      opt.deadline_ms = flags.get_int("deadline-ms", 0);
    opt.upgrade = flags.get_bool("upgrade", false);
    opt.lineage = flags.get_string("lineage", "");

    service::Response r =
        coo_mode ? client.solve(coo, opt) : client.solve(load, opt);
    print_response(r);
    if (r.ok && !r.final_reply && flags.get_bool("wait-final", false)) {
      std::printf("-- waiting for the upgraded answer --\n");
      r = client.read_reply();
      print_response(r);
    }
    return r.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", flags.program().c_str(), e.what());
    return 2;
  }
}
