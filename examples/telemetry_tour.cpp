// Telemetry tour: what the obs layer can tell you about a run.
//
// Simulates the paper's 1-degree Montage mosaic under dynamic cleanup and
// observes it four ways at once through one fan-out sink:
//   * a RingBufferSink flight recorder holding the last events of the run,
//   * a MetricsSink feeding a registry (printed as Prometheus text),
//   * a ReportBuilder attributing every cent to a task / level / resource,
//   * a SpanSink folding the stream into a causal span trace, from which
//     the critical path is extracted and the cost split critical vs. slack
//     (the library behind `mcsim explain`).
//
// By default nothing is written to disk.  Pass --telemetry-dir to persist
// the run the same way `mcsim simulate --telemetry-dir` does — events.jsonl,
// metrics.prom and report.json — plus the span trace as trace.perfetto.json
// (open in ui.perfetto.dev).
//
//   ./examples/telemetry_tour [degrees] [processors] [--telemetry-dir DIR]
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "mcsim/mcsim.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;

  // Positional [degrees] [processors] with an optional --telemetry-dir DIR
  // anywhere, mirroring the CLI flag.
  double degrees = 1.0;
  int processors = 8;
  std::string telemetryDir;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--telemetry-dir") {
      if (i + 1 >= argc) {
        std::cerr << "--telemetry-dir requires a directory argument\n";
        return 2;
      }
      telemetryDir = argv[++i];
    } else if (positional == 0) {
      degrees = std::atof(arg.c_str());
      ++positional;
    } else {
      processors = std::atoi(arg.c_str());
      ++positional;
    }
  }

  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);

  // One sink fans out to every consumer; the engine sees a single Sink*.
  obs::RingBufferSink recorder(512);
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(registry);
  obs::ReportBuilder reportBuilder;
  obs::TraceStore store;
  obs::SpanSink spans(store, analysis::traceTopology(wf));
  obs::FanOutSink fan({&recorder, &metrics, &reportBuilder, &spans});

  // --telemetry-dir: persist the stream exactly like the CLI does, through
  // the same TelemetrySession (which creates the directory).
  std::optional<obs::TelemetrySession> session;
  if (!telemetryDir.empty()) {
    session.emplace(obs::TelemetryOptions{telemetryDir});
    fan.add(session->sink());
  }

  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::DynamicCleanup;
  cfg.processors = processors;
  cfg.observer = &fan;
  cfg.samplePeriodSeconds = 120.0;

  const engine::ExecutionResult result = engine::simulateWorkflow(wf, cfg);

  // 1. The flight recorder: the tail of the event stream, typed.
  std::cout << "flight recorder: " << recorder.size() << " events retained, "
            << recorder.dropped() << " older ones dropped\n";
  std::cout << "  of which " << recorder.countOf<obs::TaskFinished>()
            << " task completions, "
            << recorder.countOf<obs::TransferFinished>()
            << " finished transfers, "
            << recorder.countOf<obs::FileCleanupDeleted>()
            << " cleanup deletions\n\n";

  // 2. The metrics registry, in the text form Prometheus scrapes.
  std::cout << "metrics exposition:\n";
  registry.writePrometheus(std::cout);

  // 3. Cost attribution: who spent the money?
  const obs::RunReport report = reportBuilder.build(
      wf, result, cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
      cloud::CpuBillingMode::Usage);

  std::cout << "\ncost by level (usage billing, level 0 = staging):\n";
  Table levels({"level", "tasks", "cpu", "storage", "in", "out", "total"});
  for (const obs::LevelCost& l : report.byLevel) {
    levels.addRow({std::to_string(l.level), std::to_string(l.tasks),
                   analysis::moneyCell(l.cost.cpu),
                   analysis::moneyCell(l.cost.storage),
                   analysis::moneyCell(l.cost.transferIn),
                   analysis::moneyCell(l.cost.transferOut),
                   analysis::moneyCell(l.cost.total())});
  }
  levels.print(std::cout);

  std::vector<obs::TaskCost> ranked = report.byTask;
  std::sort(ranked.begin(), ranked.end(),
            [](const obs::TaskCost& a, const obs::TaskCost& b) {
              return a.cost.total().value() > b.cost.total().value();
            });
  if (ranked.size() > 5) ranked.resize(5);
  std::cout << "\nmost expensive tasks:\n";
  Table top({"task", "type", "level", "total"});
  for (const obs::TaskCost& t : ranked)
    top.addRow({t.name, t.type, std::to_string(t.level),
                analysis::moneyCell(t.cost.total())});
  top.print(std::cout);

  std::cout << "\nreport total " << formatMoney(report.totals.total())
            << " (engine total "
            << formatMoney(engine::computeCost(result,
                                               cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
                                               cloud::CpuBillingMode::Usage)
                               .total())
            << ") -- identical by construction\n";

  // 4. The span trace and the critical path: where the hour actually went.
  // This is the same join `mcsim explain` performs — the trace's critical
  // path against the report's per-task costs.
  std::cout << "\nspan trace: " << store.spanCount() << " spans, "
            << store.edgeCount() << " causal edges across "
            << store.laneCount() << " processor lanes\n\n";
  const analysis::Explanation e = analysis::explainRun(wf, store, report);
  analysis::printExplanation(std::cout, e, 5);

  if (session) {
    const obs::RunReport persisted = session->finish(
        wf, result, cloud::ProviderCatalog::builtin().pricing("amazon-2008"),
        cloud::CpuBillingMode::Usage);
    const std::string perfettoPath = telemetryDir + "/trace.perfetto.json";
    {
      std::ofstream out(perfettoPath);
      if (!out) throw std::runtime_error("cannot write " + perfettoPath);
      const obs::TraceNames names = analysis::traceNames(wf);
      obs::writePerfettoTrace(out, store, &names);
    }
    std::cout << "\ntelemetry written: " << session->eventsPath() << ", "
              << session->metricsPath() << ", " << session->reportPath()
              << " (report total " << formatMoney(persisted.totals.total())
              << "),\n  " << perfettoPath << "\n";
  }
  return 0;
}
