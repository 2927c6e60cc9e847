#include "mcsim/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::serve {
namespace {

TEST(LoadWorkflowSpec, SharedSpecSyntax) {
  EXPECT_GT(loadWorkflowSpec("montage:0.2").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("cybershake").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("epigenomics").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("inspiral").taskCount(), 0u);
  EXPECT_GT(loadWorkflowSpec("sipht").taskCount(), 0u);
  EXPECT_ANY_THROW(loadWorkflowSpec("/no/such/file.dax"));
  // Degrees whose image grid the factory's int counts cannot represent.
  EXPECT_THROW(loadWorkflowSpec("montage:inf"), std::invalid_argument);
  EXPECT_THROW(loadWorkflowSpec("montage:20000"), std::invalid_argument);
}

TEST(ParseSubmitRequest, FullRequest) {
  const json::JsonValue request = json::parseJson(R"({
    "workflow": "montage:0.2",
    "scenarios": [
      {"mode": "regular", "processors": 4, "bandwidth_mbps": 20,
       "label": "a"},
      {"mode": "cleanup", "processors": 8,
       "mtbf_seconds": 3600, "fault_seed": 7}
    ],
    "base_seed": 42,
    "label": "demo",
    "events": true
  })");

  const SubmitRequest sub = parseSubmitRequest(request);
  ASSERT_EQ(sub.workflows.size(), 1u);
  ASSERT_EQ(sub.scenarios.size(), 2u);
  EXPECT_EQ(sub.scenarios[0].workflow, sub.workflows[0].get());
  EXPECT_EQ(sub.scenarios[0].config.mode, engine::DataMode::Regular);
  EXPECT_EQ(sub.scenarios[0].config.processors, 4);
  EXPECT_EQ(sub.scenarios[0].config.linkBandwidthBytesPerSec,
            20.0 * 1e6 / 8.0);
  EXPECT_EQ(sub.scenarios[0].label, "a");
  EXPECT_EQ(sub.scenarios[1].config.mode, engine::DataMode::DynamicCleanup);
  EXPECT_EQ(sub.scenarios[1].config.faults.processor.mtbfSeconds, 3600.0);
  EXPECT_EQ(sub.scenarios[1].config.faults.seed, 7u);
  EXPECT_EQ(sub.baseSeed, 42u);
  EXPECT_EQ(sub.label, "demo");
  EXPECT_TRUE(sub.events);
}

TEST(ParseSubmitRequest, RejectsMalformedPayloads) {
  EXPECT_THROW(parseSubmitRequest(json::parseJson("[]")), std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson("{}")), std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson(
                   R"({"workflow":"montage:0.2"})")),
               std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson(
                   R"({"workflow":"montage:0.2","scenarios":[]})")),
               std::runtime_error);
  EXPECT_THROW(parseSubmitRequest(json::parseJson(
                   R"({"workflow":"montage:0.2","scenarios":[1]})")),
               std::runtime_error);
  EXPECT_THROW(
      parseSubmitRequest(json::parseJson(
          R"({"workflow":"montage:0.2","scenarios":[{"mode":"bogus"}]})")),
      std::runtime_error);
  EXPECT_THROW(
      parseSubmitRequest(json::parseJson(
          R"({"workflow":"montage:0.2","scenarios":[{"processors":0}]})")),
      std::runtime_error);
}

TEST(WorkflowStore, SameSpecSubmittedTwiceSharesOneWorkflow) {
  WorkflowStore store;
  const json::JsonValue request = json::parseJson(
      R"({"workflow":"montage:1","scenarios":[{"processors":4}]})");
  const SubmitRequest first = parseSubmitRequest(request, &store);
  const SubmitRequest second = parseSubmitRequest(request, &store);
  EXPECT_EQ(first.workflows[0].get(), second.workflows[0].get());
  EXPECT_EQ(second.scenarios[0].workflow, first.workflows[0].get());
  EXPECT_NE(second.scenarios[0].workflowFingerprint, 0u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.residentTasks(), first.workflows[0]->taskCount());
  // Without a store every request builds its own workflow.
  EXPECT_NE(parseSubmitRequest(request).workflows[0].get(),
            first.workflows[0].get());
  EXPECT_EQ(parseSubmitRequest(request).scenarios[0].workflowFingerprint, 0u);
}

TEST(WorkflowStore, FingerprintIsTheWorkflowFingerprint) {
  WorkflowStore store;
  for (const char* spec :
       {"montage:0.2", "montage:1", "montage:2", "montage:4", "cybershake",
        "epigenomics", "inspiral", "sipht"}) {
    SCOPED_TRACE(spec);
    const ResolvedWorkflow resolved = store.resolve(spec);
    EXPECT_EQ(resolved.fingerprint,
              runner::fingerprintWorkflow(loadWorkflowSpec(spec)));
    EXPECT_EQ(resolved.fingerprint,
              runner::fingerprintWorkflow(*resolved.workflow));
  }
  EXPECT_EQ(store.size(), 8u);
}

TEST(WorkflowStore, BoundsHold) {
  WorkflowStore store;
  const ResolvedWorkflow oldest = store.resolve("montage:0.1");
  for (int i = 1; i <= 16; ++i)
    store.resolve("montage:0.1" + std::to_string(i));  // 17 distinct specs
  EXPECT_EQ(store.size(), WorkflowStore::kMaxWorkflows);
  // The least recently used one was evicted: resolving it builds anew.
  EXPECT_NE(store.resolve("montage:0.1").workflow.get(),
            oldest.workflow.get());
  EXPECT_EQ(store.size(), WorkflowStore::kMaxWorkflows);
}

TEST(WorkflowStore, OverBudgetWorkflowIsBuiltButNotKept) {
  WorkflowStore store;
  const ResolvedWorkflow huge = store.resolve("montage:38");
  EXPECT_GT(huge.workflow->taskCount(), WorkflowStore::kMaxTasks);
  EXPECT_EQ(huge.fingerprint, 0u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.residentTasks(), 0u);
}

TEST(WorkflowStore, DaxPathsAreNeverInterned) {
  WorkflowStore store;
  EXPECT_ANY_THROW(store.resolve("/no/such/file.dax"));
  EXPECT_ANY_THROW(store.resolve("montage:bogus"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ScenarioResultJson, MatchesBatchRunByteForByte) {
  const dag::Workflow wf = loadWorkflowSpec("montage:0.2");
  runner::ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config.processors = 4;
  spec.label = "golden";
  const auto results = runner::runScenarios({spec});
  const cloud::Pricing pricing = cloud::Pricing::amazon2008();

  const json::JsonValue one = scenarioResultToJson(results[0], pricing);
  EXPECT_EQ(one.at("index").asNumber(), 0.0);
  EXPECT_EQ(one.at("label").asString(), "golden");
  EXPECT_FALSE(one.at("from_cache").asBool());
  EXPECT_EQ(one.at("mode").asString(), "regular");
  EXPECT_EQ(one.at("processors").asNumber(), 4.0);
  EXPECT_EQ(one.at("makespan_seconds").asNumber(),
            results[0].result.makespanSeconds);
  EXPECT_TRUE(one.at("completed").asBool());
  EXPECT_GT(one.at("cost").at("total_usd").asNumber(), 0.0);

  // The serializer is pure: two renderings of the same result are
  // byte-identical — the server-vs-batch golden comparison relies on it.
  EXPECT_EQ(json::dumpJson(scenarioResultsToJson(results, pricing)),
            json::dumpJson(scenarioResultsToJson(results, pricing)));
}

}  // namespace
}  // namespace mcsim::serve
