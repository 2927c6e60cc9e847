// perfbench: one workload of the mcsim benchmark per process.
//
//   perfbench --workload sweep|serve|survey --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--socket-dir DIR]
//
// Prints the host block, notes, and as its last line one JSON object:
// {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  "attempted" and "failed" count the workload's checked set,
// which depends only on the seed, so two runs of the same code report the
// same counts; a note gives the counts over every operation.  The traced
// run also writes its spans to --trace-out.
//
//   perfbench --cell DEGREES MODE PROCESSORS MTBF FAULT_SEED EXPECT_CPU_USD
//
// simulates one Montage scenario and reports through its exit code; the
// sweep runs its known-defect cell this way, in a child process.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace {

using perfbench::MetricDef;
using perfbench::Options;
using perfbench::Result;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload sweep|serve|survey --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--socket-dir DIR]\n";
  return 2;
}

std::string formatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(const Result& result, const std::vector<MetricDef>& defs) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.checkedAttempted);
  out += ", \"failed\": " + std::to_string(result.checkedFailed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = result.metrics.find(def.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + def.name + "\": {\"value\": " +
           formatNumber(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 8 && std::string(argv[1]) == "--cell") {
    try {
      return perfbench::runCell(std::stod(argv[2]), argv[3],
                                std::stoi(argv[4]), std::stod(argv[5]),
                                std::stoull(argv[6]), std::stod(argv[7]));
    } catch (const std::exception&) {
      return 3;  // runCell's code for any other failure
    }
  }

  Options options;
  options.selfPath = argv[0];
  bool haveTrace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
        haveTrace = true;
      } else if (flag == "--trace-out") {
        options.traceOut = value;
      } else if (flag == "--socket-dir") {
        options.socketDir = value;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (argc % 2 != 1 || options.workload.empty() || !haveTrace ||
      !(options.seconds > 0.0))
    return usage(argv[0]);

  const std::string host = perfbench::hostJson();
  std::cout << host << std::endl;
  Result result;
  try {
    if (options.workload == "sweep")
      result = perfbench::runSweep(options);
    else if (options.workload == "serve")
      result = perfbench::runServe(options);
    else if (options.workload == "survey")
      result = perfbench::runSurvey(options);
    else
      return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }

  if (!options.trace) {
    result.metrics["peak_rss_mb"] =
        static_cast<double>(perfbench::peakRssBytes()) / (1 << 20);
    result.metrics["ok_frac"] =
        result.checkedAttempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(result.checkedFailed) /
                        static_cast<double>(result.checkedAttempted);
  } else if (!options.traceOut.empty()) {
    if (!perfbench::writeSpans(options.traceOut, host,
                               perfbench::collectSpans()))
      result.notes.push_back("could not write spans to " + options.traceOut);
    else
      result.notes.push_back("spans written to " + options.traceOut);
  }
  result.notes.push_back(
      "checked set: " + std::to_string(result.checkedFailed) + " of " +
      std::to_string(result.checkedAttempted) + " operations failed; all: " +
      std::to_string(result.failed) + " of " +
      std::to_string(result.attempted));
  for (auto& [name, value] : result.metrics)
    if (!std::isfinite(value)) {
      result.notes.push_back("metric " + name +
                             " was not finite; reported as 0");
      value = 0.0;
    }
  for (const std::string& note : result.notes)
    std::cout << "# " << note << "\n";
  printResult(result, options.trace ? perfbench::kPerLayerMetrics
                                    : perfbench::kEndToEndMetrics);
  return 0;
}
