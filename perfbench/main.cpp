// Benchmark driver: runs one workload and prints its result.
//
//   perfbench_driver --workload {sim-paper|loopback-hybrid|udp-fifo}
//                    --seed N --seconds S --trace {0|1}
//                    [--out-dir DIR] [--inject-sp-fault]
//   perfbench_driver --checker-selftest
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) insert the probes and report the per-layer bill, and print
// their own end-to-end numbers above the result so the tracing overhead
// can be read against an untraced run. The last line of standard output is
// the JSON result. The exit code is 0 only when every check passed.
//
// --inject-sp-fault (sim-paper only) is the checker's self-test against a
// real protocol bug. With the library-default SP stack and a switch
// requested every 500 ms it replays the schedule twice: first as a
// control, which must pass, then with SP skipping member 1's count when
// draining (SwitchConfig::fault_skip_count_sender), which must fail its
// old-before-new check. The result is the faulty replay's.
// --checker-selftest feeds hand-made delivery streams through the checker.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload {sim-paper|loopback-hybrid|udp-fifo} "
               "--seed N --seconds S --trace {0|1} [--out-dir DIR] [--inject-sp-fault]\n"
               "       perfbench_driver --checker-selftest\n");
}

void print_table(const char* title, const std::vector<pb::Metric>& ms) {
  std::printf("%s\n", title);
  for (const pb::Metric& m : ms) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(const pb::RunResult& r, const std::vector<pb::Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else if (a == "--inject-sp-fault") {
      o.inject_sp_fault = true;
    } else if (a == "--checker-selftest") {
      return pb::checker_selftest() ? 0 : 1;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !(o.seconds > 0)) {
    usage();
    return 2;
  }

  pb::RunResult r;
  if (o.workload == "sim-paper") {
    r = pb::run_sim_paper(o);
  } else if (o.workload == "loopback-hybrid") {
    r = pb::run_loopback_hybrid(o);
  } else if (o.workload == "udp-fifo") {
    r = pb::run_udp_fifo(o);
  } else {
    usage();
    return 2;
  }
  r.correct = r.correct && r.failed == 0 && r.attempted > 0;

  std::printf("workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  print_table(o.trace ? "end-to-end (traced run, includes tracing overhead):" : "end-to-end:", r.e2e);
  if (o.trace) print_table("per-layer:", r.layers);
  std::fflush(stdout);
  print_json(r, o.trace ? r.layers : r.e2e);
  return r.correct ? 0 : 1;
}
