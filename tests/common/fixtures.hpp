// Shared test fixtures.
//
// `makeFigure3Workflow` reconstructs the paper's Figure 3 example exactly as
// the text constrains it:
//   * seven tasks 0..6; tasks 0-5 take one input and produce one output;
//     task 6 takes three inputs (§3);
//   * task 0: a -> b; tasks 1 and 2 consume b ("used as input later by
//     tasks 1 and 2");
//   * file b is not dead until task 6 completes ("file b would be deleted
//     only when task 6 has completed") => 6 consumes b;
//   * the net outputs are g and h ("files g and h which are the net output
//     of the workflow are staged out").
// Concretely: 0:a->b, 1:b->c, 2:b->d, 3:d->f, 4:c->e, 5:c->h,
//             6:{e,f,b}->g.
#pragma once

#include <initializer_list>
#include <string>

#include "mcsim/dag/workflow.hpp"

namespace mcsim::test {

struct Figure3 {
  dag::Workflow wf;
  dag::FileId a, b, c, d, e, f, g, h;
  dag::TaskId t0, t1, t2, t3, t4, t5, t6;
};

/// Every file 1 MB and every task 10 s unless the caller rescales.  Files in
/// `explicitOutputs` are flagged as user products even if consumed.
inline Figure3 makeFigure3Workflow(
    std::initializer_list<char> explicitOutputs = {}) {
  dag::WorkflowBuilder wf("figure3");
  const Bytes mb = Bytes::fromMB(1.0);
  const dag::FileId a = wf.addFile("a", mb);
  const dag::FileId b = wf.addFile("b", mb);
  const dag::FileId c = wf.addFile("c", mb);
  const dag::FileId d = wf.addFile("d", mb);
  const dag::FileId e = wf.addFile("e", mb);
  const dag::FileId f = wf.addFile("f", mb);
  const dag::FileId g = wf.addFile("g", mb);
  const dag::FileId h = wf.addFile("h", mb);
  for (char name : explicitOutputs)
    wf.markExplicitOutput(static_cast<dag::FileId>(name - 'a'));

  const dag::TaskId t0 = wf.addTask("t0", "stage0", 10.0);
  wf.addInput(t0, a);
  wf.addOutput(t0, b);

  const dag::TaskId t1 = wf.addTask("t1", "stage1", 10.0);
  wf.addInput(t1, b);
  wf.addOutput(t1, c);

  const dag::TaskId t2 = wf.addTask("t2", "stage1", 10.0);
  wf.addInput(t2, b);
  wf.addOutput(t2, d);

  const dag::TaskId t3 = wf.addTask("t3", "stage2", 10.0);
  wf.addInput(t3, d);
  wf.addOutput(t3, f);

  const dag::TaskId t4 = wf.addTask("t4", "stage2", 10.0);
  wf.addInput(t4, c);
  wf.addOutput(t4, e);

  const dag::TaskId t5 = wf.addTask("t5", "stage2", 10.0);
  wf.addInput(t5, c);
  wf.addOutput(t5, h);

  const dag::TaskId t6 = wf.addTask("t6", "stage3", 10.0);
  wf.addInput(t6, e);
  wf.addInput(t6, f);
  wf.addInput(t6, b);
  wf.addOutput(t6, g);

  return Figure3{wf.build(), a, b, c, d, e, f, g, h,
                 t0, t1, t2, t3, t4, t5, t6};
}

/// A linear chain: in -> t0 -> f0 -> t1 -> f1 -> ... -> t(n-1) -> f(n-1).
/// File ids run in that order (in = 0, f<i> = i + 1); files in
/// `explicitOutputs` are flagged as user products even if consumed.
inline dag::Workflow makeChainWorkflow(
    int length, double taskSeconds = 10.0, Bytes fileSize = Bytes::fromMB(1.0),
    std::initializer_list<dag::FileId> explicitOutputs = {}) {
  dag::WorkflowBuilder wf("chain-" + std::to_string(length));
  dag::FileId prev = wf.addFile("in", fileSize);
  for (int i = 0; i < length; ++i) {
    const dag::TaskId t =
        wf.addTask("t" + std::to_string(i), "chain", taskSeconds);
    wf.addInput(t, prev);
    prev = wf.addFile("f" + std::to_string(i), fileSize);
    wf.addOutput(t, prev);
  }
  for (dag::FileId f : explicitOutputs) wf.markExplicitOutput(f);
  return wf.build();
}

/// A fork-join "diamond": in -> split -> {w0..w(k-1)} -> join -> out.
inline dag::Workflow makeForkJoinWorkflow(int width, double taskSeconds = 10.0,
                                          Bytes fileSize = Bytes::fromMB(1.0)) {
  dag::WorkflowBuilder wf("forkjoin-" + std::to_string(width));
  const dag::FileId in = wf.addFile("in", fileSize);
  const dag::TaskId split = wf.addTask("split", "split", taskSeconds);
  wf.addInput(split, in);
  const dag::FileId mid = wf.addFile("mid", fileSize);
  wf.addOutput(split, mid);
  const dag::TaskId join = wf.addTask("join", "join", taskSeconds);
  for (int i = 0; i < width; ++i) {
    const dag::TaskId w =
        wf.addTask("w" + std::to_string(i), "work", taskSeconds);
    wf.addInput(w, mid);
    const dag::FileId f = wf.addFile("w" + std::to_string(i) + ".out", fileSize);
    wf.addOutput(w, f);
    wf.addInput(join, f);
  }
  const dag::FileId out = wf.addFile("out", fileSize);
  wf.addOutput(join, out);
  return wf.build();
}

}  // namespace mcsim::test
