#include "mcsim/dag/workflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "tests/common/fixtures.hpp"

namespace mcsim::dag {
namespace {

using test::makeFigure3Workflow;

TEST(Workflow, Figure3StructureDerivedFromDataFlow) {
  const auto fig = makeFigure3Workflow();
  const Workflow& wf = fig.wf;
  EXPECT_EQ(wf.taskCount(), 7u);
  EXPECT_EQ(wf.fileCount(), 8u);

  // t0 is the only source; its children are b's consumers: t1, t2, t6.
  EXPECT_TRUE(wf.task(fig.t0).parents.empty());
  EXPECT_EQ(wf.task(fig.t0).children,
            (std::vector<TaskId>{fig.t1, fig.t2, fig.t6}));
  // t6's parents: producers of e, f, b = t4, t3, t0 (sorted by id).
  EXPECT_EQ(wf.task(fig.t6).parents,
            (std::vector<TaskId>{fig.t0, fig.t3, fig.t4}));
}

TEST(Workflow, Figure3LevelsFollowPaperDefinition) {
  const auto fig = makeFigure3Workflow();
  EXPECT_EQ(fig.wf.task(fig.t0).level, 1);
  EXPECT_EQ(fig.wf.task(fig.t1).level, 2);
  EXPECT_EQ(fig.wf.task(fig.t2).level, 2);
  EXPECT_EQ(fig.wf.task(fig.t3).level, 3);
  EXPECT_EQ(fig.wf.task(fig.t4).level, 3);
  EXPECT_EQ(fig.wf.task(fig.t5).level, 3);
  EXPECT_EQ(fig.wf.task(fig.t6).level, 4);
  EXPECT_EQ(fig.wf.levelCount(), 4);
}

TEST(Workflow, Figure3ExternalInputsAndOutputs) {
  const auto fig = makeFigure3Workflow();
  EXPECT_EQ(fig.wf.externalInputs(), (std::vector<FileId>{fig.a}));
  // Net outputs g and h, exactly as the paper states.
  EXPECT_EQ(fig.wf.workflowOutputs(), (std::vector<FileId>{fig.g, fig.h}));
  EXPECT_DOUBLE_EQ(fig.wf.externalInputBytes().mb(), 1.0);
  EXPECT_DOUBLE_EQ(fig.wf.workflowOutputBytes().mb(), 2.0);
}

TEST(Workflow, TotalsAndCcr) {
  const auto fig = makeFigure3Workflow();
  EXPECT_DOUBLE_EQ(fig.wf.totalRuntimeSeconds(), 70.0);
  EXPECT_DOUBLE_EQ(fig.wf.totalFileBytes().mb(), 8.0);
  // CCR = (8 MB / 1 MB/s) / 70 s.
  EXPECT_NEAR(fig.wf.ccr(1e6), 8.0 / 70.0, 1e-12);
}

TEST(Workflow, ExplicitOutputSurvivesConsumption) {
  // c is consumed by t4 and t5, and flagged as an output too.
  const auto fig = makeFigure3Workflow({'c'});
  const auto outs = fig.wf.workflowOutputs();
  EXPECT_NE(std::find(outs.begin(), outs.end(), fig.c), outs.end());
}

TEST(Workflow, CycleDetected) {
  WorkflowBuilder wf("cyclic");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const FileId y = wf.addFile("y", Bytes(1.0));
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addInput(t1, x);
  wf.addOutput(t1, y);
  wf.addInput(t2, y);
  wf.addOutput(t2, x);
  EXPECT_THROW(wf.build(), std::logic_error);
}

TEST(Workflow, ControlDependencyCycleDetected) {
  WorkflowBuilder wf("ctrl-cyclic");
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addControlDependency(t1, t2);
  wf.addControlDependency(t2, t1);
  EXPECT_THROW(wf.build(), std::logic_error);
}

TEST(Workflow, ControlDependencyCreatesEdgeAndLevel) {
  WorkflowBuilder builder("ctrl");
  const TaskId t1 = builder.addTask("t1", "t", 1.0);
  const TaskId t2 = builder.addTask("t2", "t", 1.0);
  builder.addControlDependency(t1, t2);
  const Workflow wf = builder.build();
  EXPECT_EQ(wf.task(t2).parents, (std::vector<TaskId>{t1}));
  EXPECT_EQ(wf.task(t2).level, 2);
  ASSERT_EQ(wf.controlDependencies().size(), 1u);
}

TEST(Workflow, SelfProducingTaskRejected) {
  // Both binding orders are rejected by build().
  WorkflowBuilder wf("selfloop");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const TaskId t = wf.addTask("t", "t", 1.0);
  wf.addInput(t, x);
  wf.addOutput(t, x);
  EXPECT_THROW(wf.build(), std::invalid_argument);
  WorkflowBuilder wf2("selfloop2");
  const FileId y = wf2.addFile("y", Bytes(1.0));
  const TaskId u = wf2.addTask("u", "t", 1.0);
  wf2.addOutput(u, y);
  wf2.addInput(u, y);
  EXPECT_THROW(wf2.build(), std::invalid_argument);
}

TEST(Workflow, SecondProducerRejected) {
  WorkflowBuilder wf("two-producers");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addOutput(t1, x);
  EXPECT_THROW(wf.addOutput(t2, x), std::invalid_argument);
}

TEST(Workflow, DuplicateInputBindingRejected) {
  {
    WorkflowBuilder wf("dup-input");
    const FileId x = wf.addFile("x", Bytes(1.0));
    const TaskId t = wf.addTask("t", "t", 1.0);
    wf.addInput(t, x);
    wf.addInput(t, x);
    EXPECT_THROW(wf.build(), std::invalid_argument);
  }
  {
    // The two bindings need not be adjacent: `join` gets its duplicate
    // after other tasks have bound the same file.
    WorkflowBuilder wf("dup-fan-in");
    const FileId a = wf.addFile("a", Bytes(1.0));
    const FileId b = wf.addFile("b", Bytes(1.0));
    const TaskId join = wf.addTask("join", "join", 1.0);
    wf.addInput(join, a);
    wf.addInput(join, b);
    for (const char* name : {"r1", "r2"})
      wf.addInput(wf.addTask(name, "r", 1.0), a);
    wf.addInput(join, a);
    EXPECT_THROW(wf.build(), std::invalid_argument);
  }
  {
    // The same file bound once by each of several tasks is fine.
    WorkflowBuilder builder("fan-out");
    const FileId shared = builder.addFile("shared", Bytes(1.0));
    for (const char* name : {"r1", "r2", "r3"})
      builder.addInput(builder.addTask(name, "r", 1.0), shared);
    const Workflow wf = builder.build();
    EXPECT_EQ(wf.file(shared).consumers, (std::vector<TaskId>{0, 1, 2}));
  }
}

TEST(Workflow, InvalidIdsRejected) {
  WorkflowBuilder wf("bad-ids");
  const TaskId t = wf.addTask("t", "t", 1.0);
  const FileId x = wf.addFile("x", Bytes(1.0));
  EXPECT_THROW(wf.addInput(t, 99), std::out_of_range);
  EXPECT_THROW(wf.addInput(99, x), std::out_of_range);
  EXPECT_THROW(wf.addOutput(99, x), std::out_of_range);
  EXPECT_THROW(wf.addControlDependency(t, 99), std::out_of_range);
  EXPECT_THROW(wf.markExplicitOutput(99), std::out_of_range);
  EXPECT_THROW(wf.setEarliestStart(99, 1.0), std::out_of_range);
  Workflow built = wf.build();
  EXPECT_THROW(built.setEarliestStart(99, 1.0), std::out_of_range);
}

TEST(Workflow, NegativeQuantitiesRejected) {
  WorkflowBuilder wf("neg");
  EXPECT_THROW(wf.addTask("t", "t", -1.0), std::invalid_argument);
  EXPECT_THROW(wf.addFile("x", Bytes(-1.0)), std::invalid_argument);
  const TaskId t = wf.addTask("t", "t", 1.0);
  EXPECT_THROW(wf.setEarliestStart(t, -1.0), std::invalid_argument);
  Workflow built = wf.build();
  EXPECT_THROW(built.setEarliestStart(t, -1.0), std::invalid_argument);
}

TEST(Workflow, SizeScalingAllowedAfterFinalize) {
  auto fig = makeFigure3Workflow();
  fig.wf.scaleAllFileSizes(2.0);
  EXPECT_DOUBLE_EQ(fig.wf.file(fig.a).size.mb(), 2.0);
  EXPECT_DOUBLE_EQ(fig.wf.file(fig.b).size.mb(), 2.0);
  EXPECT_THROW(fig.wf.scaleAllFileSizes(0.0), std::invalid_argument);
  EXPECT_THROW(fig.wf.scaleAllFileSizes(-1.0), std::invalid_argument);
}

TEST(Workflow, RuntimeScalingAllowedAfterFinalize) {
  auto fig = makeFigure3Workflow();
  fig.wf.scaleAllRuntimes(3.0);
  EXPECT_DOUBLE_EQ(fig.wf.totalRuntimeSeconds(), 210.0);
  EXPECT_THROW(fig.wf.scaleAllRuntimes(0.0), std::invalid_argument);
}

TEST(Workflow, CcrValidation) {
  auto fig = makeFigure3Workflow();
  EXPECT_THROW(fig.wf.ccr(0.0), std::invalid_argument);
  const Workflow empty = WorkflowBuilder("empty").build();
  EXPECT_THROW(empty.ccr(1.0), std::logic_error);
}

TEST(Workflow, EmptyWorkflowFinalizes) {
  const Workflow wf = WorkflowBuilder("empty").build();
  EXPECT_EQ(wf.name(), "empty");
  EXPECT_EQ(wf.taskCount(), 0u);
  EXPECT_EQ(wf.levelCount(), 0);
  EXPECT_TRUE(wf.externalInputs().empty());
  EXPECT_TRUE(wf.workflowOutputs().empty());
}

TEST(Workflow, ParallelTasksShareLevelOne) {
  WorkflowBuilder builder("flat");
  for (int i = 0; i < 5; ++i) {
    const FileId in = builder.addFile("in" + std::to_string(i), Bytes(1.0));
    const TaskId t = builder.addTask("t" + std::to_string(i), "t", 1.0);
    builder.addInput(t, in);
    const FileId out = builder.addFile("out" + std::to_string(i), Bytes(1.0));
    builder.addOutput(t, out);
  }
  const Workflow wf = builder.build();
  for (const Task& t : wf.tasks()) EXPECT_EQ(t.level, 1);
  EXPECT_EQ(wf.externalInputs().size(), 5u);
  EXPECT_EQ(wf.workflowOutputs().size(), 5u);
}

TEST(WorkflowBuilder, BindingsToEarlierTasksKeepTheirCallOrder) {
  // CyberShake's shape: the zip task comes first and collects its inputs
  // as the producers appear; `late` is bound after `zip` got some inputs.
  WorkflowBuilder builder("late-bindings");
  const TaskId zip = builder.addTask("zip", "zip", 1.0);
  std::vector<FileId> parts;
  for (int i = 0; i < 3; ++i) {
    const TaskId make = builder.addTask("make" + std::to_string(i), "m", 1.0);
    parts.push_back(builder.addFile("part" + std::to_string(i), Bytes(1.0)));
    builder.addOutput(make, parts.back());
  }
  const FileId late = builder.addFile("late", Bytes(1.0));
  builder.addInput(zip, parts[2]);
  builder.addInput(3, late);
  builder.addInput(zip, parts[0]);
  builder.addInput(zip, late);
  builder.addInput(zip, parts[1]);
  const FileId archive = builder.addFile("archive", Bytes(1.0));
  builder.addOutput(zip, archive);
  const Workflow wf = builder.build();

  EXPECT_EQ(wf.task(zip).inputs,
            (std::vector<FileId>{parts[2], parts[0], late, parts[1]}));
  EXPECT_EQ(wf.task(zip).outputs, (std::vector<FileId>{archive}));
  EXPECT_EQ(wf.task(zip).parents, (std::vector<TaskId>{1, 2, 3}));
  EXPECT_EQ(wf.task(zip).level, 2);
  EXPECT_EQ(wf.file(late).consumers, (std::vector<TaskId>{zip, 3}));
  EXPECT_EQ(wf.task(1).children, (std::vector<TaskId>{zip}));
}

TEST(WorkflowBuilder, ProducersAndControlEdgesMayPointBackward) {
  // t0 reads x before t2 is declared as x's producer, and a control edge
  // runs from t1 to t0: the chain is t2 -> t0 by data, t1 -> t0 by control.
  WorkflowBuilder builder("backward");
  const FileId x = builder.addFile("x", Bytes(1.0));
  const TaskId t0 = builder.addTask("t0", "t", 1.0);
  builder.addInput(t0, x);
  const TaskId t1 = builder.addTask("t1", "t", 1.0);
  const TaskId t2 = builder.addTask("t2", "t", 1.0);
  builder.addOutput(t2, x);
  builder.addControlDependency(t2, t1);
  builder.addControlDependency(t1, t0);
  const Workflow wf = builder.build();

  EXPECT_EQ(wf.task(t0).parents, (std::vector<TaskId>{t1, t2}));
  EXPECT_EQ(wf.task(t2).children, (std::vector<TaskId>{t0, t1}));
  EXPECT_EQ(wf.task(t2).level, 1);
  EXPECT_EQ(wf.task(t1).level, 2);
  EXPECT_EQ(wf.task(t0).level, 3);
  EXPECT_EQ(wf.file(x).producer, t2);
}

TEST(WorkflowBuilder, SelfControlDependencyRejected) {
  WorkflowBuilder builder("self");
  const TaskId t = builder.addTask("t", "t", 1.0);
  EXPECT_THROW(builder.addControlDependency(t, t), std::invalid_argument);
}

TEST(WorkflowBuilder, BuildLeavesTheBuilderEmptyAndReusable) {
  WorkflowBuilder builder("reuse");
  const TaskId a = builder.addTask("a", "t", 1.0);
  const TaskId b = builder.addTask("b", "t", 1.0);
  builder.addControlDependency(a, b);
  const Workflow first = builder.build();
  EXPECT_EQ(first.task(b).parents, std::vector<TaskId>{a});
  EXPECT_EQ(builder.taskCount(), 0u);
  EXPECT_EQ(builder.fileCount(), 0u);

  builder.addTask("c", "u", 2.0);
  const Workflow second = builder.build();
  EXPECT_EQ(second.name(), "reuse");
  ASSERT_EQ(second.taskCount(), 1u);
  EXPECT_EQ(second.task(0).type, "u");
  EXPECT_TRUE(second.controlDependencies().empty());
}

}  // namespace
}  // namespace mcsim::dag
