// WorkflowBuilder property tests.
//
// Level-ordered sequences (the shape Montage and the survey emit): the
// built graph matches its closed-form counts, levels rise along every edge,
// every non-root task is wired to an upstream producer, and the same seed
// replays byte-identically.
//
// Free-order sequences (bindings to earlier tasks, producers declared after
// their consumers, backward control edges): build() agrees with an oracle
// that derives consumers, parents, children and levels straight from the
// recorded calls and the definitions, and rejects an injected cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/util/rng.hpp"

namespace mcsim::dag {
namespace {

/// Shape of one randomized streaming build, derived from the seed.
struct BuildPlan {
  int levels = 0;
  std::vector<int> tasksPerLevel;
  int externalInputs = 0;
};

BuildPlan makePlan(std::uint64_t seed) {
  Rng rng(seed);
  BuildPlan plan;
  plan.levels = static_cast<int>(rng.uniformInt(1, 6));
  for (int l = 0; l < plan.levels; ++l)
    plan.tasksPerLevel.push_back(static_cast<int>(rng.uniformInt(1, 12)));
  plan.externalInputs = static_cast<int>(rng.uniformInt(1, 8));
  return plan;
}

/// Drive one level-ordered construction sequence into `sink`.  Tasks
/// arrive in topological level order; each produces one file and binds a
/// random subset of the files already produced.
std::size_t emitRandom(WorkflowBuilder& sink, std::uint64_t seed,
                       std::size_t* edges) {
  const BuildPlan plan = makePlan(seed);
  Rng rng(seed * 1001 + 17);

  std::vector<FileId> available;  // files with a declared producer or external
  for (int i = 0; i < plan.externalInputs; ++i)
    available.push_back(sink.addFile("ext_" + std::to_string(i),
                                     Bytes(1024.0 * (i + 1))));

  std::size_t inputEdges = 0;
  for (int level = 0; level < plan.levels; ++level) {
    std::vector<FileId> produced;
    for (int i = 0; i < plan.tasksPerLevel[level]; ++i) {
      const std::string stem =
          "L" + std::to_string(level) + "_" + std::to_string(i);
      const TaskId t = sink.addTask("task_" + stem, "type" +
                                        std::to_string(level % 3),
                                    1.0 + static_cast<double>(level));
      // Bind 1..4 distinct already-declared files (reject duplicates by
      // retrying; degree is tiny).
      const int want = static_cast<int>(rng.uniformInt(
          1, std::min<std::int64_t>(4, static_cast<std::int64_t>(
                                           available.size()))));
      std::vector<FileId> chosen;
      while (static_cast<int>(chosen.size()) < want) {
        const FileId f = available[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(available.size()) - 1))];
        if (std::find(chosen.begin(), chosen.end(), f) == chosen.end())
          chosen.push_back(f);
      }
      for (FileId f : chosen) {
        sink.addInput(t, f);
        ++inputEdges;
      }
      const FileId out =
          sink.addFile("out_" + stem, Bytes(4096.0 * (level + 1)));
      sink.addOutput(t, out);
      produced.push_back(out);
    }
    // Files produced on this level become available to later levels only.
    available.insert(available.end(), produced.begin(), produced.end());
  }
  if (edges) *edges = inputEdges;

  std::size_t tasks = 0;
  for (int n : plan.tasksPerLevel) tasks += static_cast<std::size_t>(n);
  return tasks;
}

class BuilderProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderProperty,
                         ::testing::Range<std::uint64_t>(3000, 3024));

TEST_P(BuilderProperty, CountsMatchClosedForm) {
  WorkflowBuilder builder("prop");
  std::size_t edges = 0;
  const std::size_t tasks = emitRandom(builder, GetParam(), &edges);
  const BuildPlan plan = makePlan(GetParam());

  EXPECT_EQ(builder.taskCount(), tasks);
  EXPECT_EQ(builder.fileCount(),
            tasks + static_cast<std::size_t>(plan.externalInputs));

  const Workflow wf = builder.build();
  EXPECT_EQ(wf.taskCount(), tasks);
  EXPECT_EQ(wf.fileCount(),
            tasks + static_cast<std::size_t>(plan.externalInputs));
  std::size_t boundInputs = 0;
  for (const Task& t : wf.tasks()) boundInputs += t.inputs.size();
  EXPECT_EQ(boundInputs, edges);
}

TEST_P(BuilderProperty, AcyclicWithMonotoneLevels) {
  WorkflowBuilder builder("prop");
  emitRandom(builder, GetParam(), nullptr);
  const Workflow wf = builder.build();

  // Level order makes every parent id smaller than its child's, and levels
  // must rise strictly along every edge.
  for (const Task& t : wf.tasks()) {
    for (TaskId p : t.parents) {
      EXPECT_LT(p, t.id);
      EXPECT_LT(wf.task(p).level, t.level);
    }
    for (TaskId c : t.children) EXPECT_GT(c, t.id);
  }
}

TEST_P(BuilderProperty, EveryNonRootTaskHasAnUpstreamProducer) {
  WorkflowBuilder builder("prop");
  emitRandom(builder, GetParam(), nullptr);
  const Workflow wf = builder.build();

  for (const Task& t : wf.tasks()) {
    if (t.level == 1) {
      // Roots (paper levels are 1-based) consume only external files.
      for (FileId f : t.inputs) EXPECT_EQ(wf.file(f).producer, kNoTask);
      continue;
    }
    bool hasProducedInput = false;
    for (FileId f : t.inputs)
      if (wf.file(f).producer != kNoTask) hasProducedInput = true;
    EXPECT_TRUE(hasProducedInput)
        << "task " << t.name << " at level " << t.level
        << " has no produced input";
  }
}

TEST_P(BuilderProperty, SameSeedReplaysByteIdentically) {
  WorkflowBuilder first("prop");
  WorkflowBuilder second("prop");
  emitRandom(first, GetParam(), nullptr);
  emitRandom(second, GetParam(), nullptr);
  // The DAX serialization covers names, types, runtimes, sizes and the
  // full edge structure; byte equality is the strongest cheap identity.
  EXPECT_EQ(writeDax(first.build()), writeDax(second.build()));
}

/// One recorded builder call.
struct Call {
  enum Kind { AddTask, AddFile, Input, Output, Control, Explicit, Release };
  Kind kind;
  std::uint32_t a = 0;  ///< Task (Input/Output/Release), parent, file.
  std::uint32_t b = 0;  ///< File (Input/Output) or child (Control).
  double value = 0.0;   ///< Runtime, size or release time.
};

/// A free-order call sequence.  Every task and file gets a hidden random
/// rank, and every edge runs from a lower rank to a higher one: a task
/// reads only files ranked below it, produces only files ranked above it,
/// and a control edge runs up the ranks.  The graph is acyclic whatever the
/// creation order, while ids follow creation order — so bindings land on
/// earlier tasks, producers come after consumers and control edges point
/// backward as often as not.
std::vector<Call> randomCalls(std::uint64_t seed) {
  Rng rng(seed * 7919 + 3);
  std::vector<double> taskRank;
  std::vector<double> fileRank;
  std::vector<bool> produced;
  std::set<std::pair<std::uint32_t, std::uint32_t>> bound;
  std::vector<Call> calls;
  const int ops = static_cast<int>(rng.uniformInt(20, 160));
  for (int op = 0; op < ops; ++op) {
    const std::int64_t pick = rng.uniformInt(0, 9);
    const bool haveBoth = !taskRank.empty() && !fileRank.empty();
    auto anyTask = [&] {
      return static_cast<std::uint32_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(taskRank.size()) - 1));
    };
    auto anyFile = [&] {
      return static_cast<std::uint32_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(fileRank.size()) - 1));
    };
    if (taskRank.empty() || pick < 2) {
      taskRank.push_back(rng.uniformReal(0.0, 1.0));
      calls.push_back({Call::AddTask, 0, 0, rng.uniformReal(0.0, 100.0)});
    } else if (fileRank.empty() || pick < 4) {
      fileRank.push_back(rng.uniformReal(0.0, 1.0));
      produced.push_back(false);
      calls.push_back({Call::AddFile, 0, 0, rng.uniformReal(1.0, 1e6)});
    } else if (haveBoth && pick < 7) {
      const std::uint32_t t = anyTask();
      const std::uint32_t f = anyFile();
      if (taskRank[t] > fileRank[f] && bound.emplace(t, f).second)
        calls.push_back({Call::Input, t, f});
    } else if (haveBoth && pick < 8) {
      const std::uint32_t t = anyTask();
      const std::uint32_t f = anyFile();
      if (!produced[f] && taskRank[t] < fileRank[f]) {
        produced[f] = true;
        calls.push_back({Call::Output, t, f});
      }
    } else if (pick < 9) {
      const std::uint32_t p = anyTask();
      const std::uint32_t c = anyTask();
      if (taskRank[p] < taskRank[c])
        calls.push_back({Call::Control, p, c});
    } else if (!fileRank.empty() && rng.chance(0.5)) {
      calls.push_back({Call::Explicit, anyFile()});
    } else {
      calls.push_back({Call::Release, anyTask(), 0,
                       rng.uniformReal(0.0, 50.0)});
    }
  }
  return calls;
}

Workflow replay(const std::vector<Call>& calls) {
  WorkflowBuilder builder("free");
  for (const Call& c : calls) {
    switch (c.kind) {
      case Call::AddTask:
        builder.addTask("t" + std::to_string(builder.taskCount()),
                        "type" + std::to_string(builder.taskCount() % 3),
                        c.value);
        break;
      case Call::AddFile:
        builder.addFile("f" + std::to_string(builder.fileCount()),
                        Bytes(c.value));
        break;
      case Call::Input: builder.addInput(c.a, c.b); break;
      case Call::Output: builder.addOutput(c.a, c.b); break;
      case Call::Control: builder.addControlDependency(c.a, c.b); break;
      case Call::Explicit: builder.markExplicitOutput(c.a); break;
      case Call::Release: builder.setEarliestStart(c.a, c.value); break;
    }
  }
  return builder.build();
}

/// Every field of a workflow, derived from the calls by the definitions.
struct Oracle {
  std::vector<std::vector<FileId>> inputs, outputs;
  std::vector<std::vector<TaskId>> parents, children, consumers;
  std::vector<int> level;
  std::vector<TaskId> producer;
  std::vector<double> release;
  std::vector<bool> explicitOutput;
};

Oracle oracleFor(const std::vector<Call>& calls) {
  Oracle o;
  std::vector<std::pair<TaskId, TaskId>> control;
  for (const Call& c : calls) {
    switch (c.kind) {
      case Call::AddTask:
        o.inputs.emplace_back();
        o.outputs.emplace_back();
        o.release.push_back(0.0);
        break;
      case Call::AddFile:
        o.producer.push_back(kNoTask);
        o.explicitOutput.push_back(false);
        break;
      case Call::Input: o.inputs[c.a].push_back(c.b); break;
      case Call::Output:
        o.outputs[c.a].push_back(c.b);
        o.producer[c.b] = c.a;
        break;
      case Call::Control: control.emplace_back(c.a, c.b); break;
      case Call::Explicit: o.explicitOutput[c.a] = true; break;
      case Call::Release: o.release[c.a] = c.value; break;
    }
  }
  const std::size_t tasks = o.inputs.size();
  const std::size_t files = o.producer.size();

  // A file's consumers: every task that reads it, by ascending id.
  o.consumers.resize(files);
  for (std::size_t t = 0; t < tasks; ++t)
    for (FileId f : o.inputs[t])
      o.consumers[f].push_back(static_cast<TaskId>(t));

  // A task's parents: the producers of its inputs and its control parents.
  std::vector<std::set<TaskId>> parentSets(tasks);
  for (std::size_t t = 0; t < tasks; ++t)
    for (FileId f : o.inputs[t])
      if (o.producer[f] != kNoTask) parentSets[t].insert(o.producer[f]);
  for (const auto& [p, c] : control) parentSets[c].insert(p);
  o.parents.resize(tasks);
  o.children.resize(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    o.parents[t].assign(parentSets[t].begin(), parentSets[t].end());
    for (TaskId p : o.parents[t])
      o.children[p].push_back(static_cast<TaskId>(t));
  }
  for (std::vector<TaskId>& c : o.children) std::sort(c.begin(), c.end());

  // Paper §2 levels by fixed-point relaxation: 1 for a source, otherwise
  // 1 + the highest parent level.
  o.level.assign(tasks, 1);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t t = 0; t < tasks; ++t)
      for (TaskId p : o.parents[t])
        if (o.level[p] + 1 > o.level[t]) {
          o.level[t] = o.level[p] + 1;
          changed = true;
        }
  }
  return o;
}

TEST_P(BuilderProperty, MatchesDefinitionOracle) {
  const std::vector<Call> calls = randomCalls(GetParam());
  const Workflow wf = replay(calls);
  const Oracle o = oracleFor(calls);

  ASSERT_EQ(wf.taskCount(), o.inputs.size());
  ASSERT_EQ(wf.fileCount(), o.producer.size());
  for (const Task& t : wf.tasks()) {
    EXPECT_EQ(t.inputs, o.inputs[t.id]) << t.name;
    EXPECT_EQ(t.outputs, o.outputs[t.id]) << t.name;
    EXPECT_EQ(t.parents, o.parents[t.id]) << t.name;
    EXPECT_EQ(t.children, o.children[t.id]) << t.name;
    EXPECT_EQ(t.level, o.level[t.id]) << t.name;
    EXPECT_EQ(t.earliestStartSeconds, o.release[t.id]) << t.name;
  }
  for (const File& f : wf.files()) {
    EXPECT_EQ(f.producer, o.producer[f.id]) << f.name;
    EXPECT_EQ(f.consumers, o.consumers[f.id]) << f.name;
    EXPECT_EQ(f.explicitOutput, o.explicitOutput[f.id]) << f.name;
  }
}

TEST_P(BuilderProperty, InjectedCycleThrows) {
  // Close a cycle over one existing edge: a control edge from its child
  // back to its parent.
  std::vector<Call> calls = randomCalls(GetParam());
  const Oracle o = oracleFor(calls);
  Rng rng(GetParam());
  std::vector<std::pair<TaskId, TaskId>> edges;
  for (std::size_t t = 0; t < o.parents.size(); ++t)
    for (TaskId p : o.parents[t]) edges.emplace_back(p, static_cast<TaskId>(t));
  if (edges.empty()) {
    // No edge to close: add two tasks that wait on each other.
    calls.push_back({Call::AddTask, 0, 0, 1.0});
    calls.push_back({Call::AddTask, 0, 0, 1.0});
    const auto a = static_cast<std::uint32_t>(o.inputs.size());
    edges.emplace_back(a, a + 1);
    calls.push_back({Call::Control, a, a + 1});
  }
  const auto [parent, child] = edges[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(edges.size()) - 1))];
  calls.push_back({Call::Control, child, parent});
  EXPECT_THROW(replay(calls), std::logic_error);
}

TEST(BuilderOracle, FreeOrderSequencesExerciseEveryFreedom) {
  // Across the property seeds the free-order generator must produce each
  // shape the level-ordered one cannot.
  std::size_t lateBindings = 0;
  std::size_t producerAfterConsumer = 0;
  std::size_t backwardControl = 0;
  for (std::uint64_t seed = 3000; seed < 3024; ++seed) {
    const std::vector<Call> calls = randomCalls(seed);
    std::uint32_t tasks = 0;
    std::set<std::uint32_t> consumed;
    for (const Call& c : calls) {
      if (c.kind == Call::AddTask) ++tasks;
      if ((c.kind == Call::Input || c.kind == Call::Output) &&
          c.a + 1 < tasks)
        ++lateBindings;
      if (c.kind == Call::Input) consumed.insert(c.b);
      if (c.kind == Call::Output && consumed.count(c.b) != 0)
        ++producerAfterConsumer;
      if (c.kind == Call::Control && c.a > c.b) ++backwardControl;
    }
  }
  EXPECT_GT(lateBindings, 0u);
  EXPECT_GT(producerAfterConsumer, 0u);
  EXPECT_GT(backwardControl, 0u);
}

}  // namespace
}  // namespace mcsim::dag
