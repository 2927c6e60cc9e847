// Structure pins: a digest over every field of a built dag::Workflow, the
// derived ones included, for every production generator.
//
// runner::fingerprintWorkflow keys the memo cache on what a simulation reads
// from the call sequence (names, runtimes, bindings, sizes); it hashes none
// of the derived consumers, parents, children or levels.  These pins cover
// those too, so any change to how a workflow is built — order of consumer
// lists, parent dedupe, level derivation, release times — shows up here as
// a changed digest.  A pin changes only with a deliberate, documented change
// to a generator's output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/merge.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/workflows/gallery.hpp"
#include "mcsim/workflows/survey.hpp"

namespace mcsim::dag {
namespace {

/// FNV-1a over a length-prefixed field stream.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  template <class Id>
  void ids(const std::vector<Id>& v) {
    u64(v.size());
    for (Id id : v) u64(id);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hashInto(Digest& d, const Workflow& wf) {
  d.str(wf.name());
  d.u64(wf.taskCount());
  for (const Task& t : wf.tasks()) {
    d.u64(t.id);
    d.str(t.name);
    d.str(t.type);
    d.f64(t.runtimeSeconds);
    d.f64(t.earliestStartSeconds);
    d.ids(t.inputs);
    d.ids(t.outputs);
    d.ids(t.parents);
    d.ids(t.children);
    d.u64(static_cast<std::uint64_t>(t.level));
  }
  d.u64(wf.fileCount());
  for (const File& f : wf.files()) {
    d.u64(f.id);
    d.str(f.name);
    d.f64(f.size.value());
    d.u64(f.producer);
    d.ids(f.consumers);
    d.u64(f.explicitOutput ? 1 : 0);
  }
  d.u64(wf.controlDependencies().size());
  for (const auto& [parent, child] : wf.controlDependencies()) {
    d.u64(parent);
    d.u64(child);
  }
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digestOf(const std::vector<Workflow>& workflows) {
  Digest d;
  d.u64(workflows.size());
  for (const Workflow& wf : workflows) hashInto(d, wf);
  return hex(d.value());
}

std::string digestOf(const Workflow& wf) {
  Digest d;
  hashInto(d, wf);
  return hex(d.value());
}

std::vector<Workflow> gallery() {
  std::vector<Workflow> parts;
  parts.push_back(workflows::buildCyberShake());
  parts.push_back(workflows::buildEpigenomics());
  parts.push_back(workflows::buildInspiral());
  parts.push_back(workflows::buildSipht());
  return parts;
}

workflows::SurveyConfig surveyConfig(double overlap) {
  workflows::SurveyConfig config;
  config.name = "pin-survey";
  config.tiles = 50;
  config.tileDegrees = 1.0;
  config.overlapFraction = overlap;
  config.seed = 18;
  config.runtimeJitterFraction = 0.2;
  config.releaseIntervalSeconds = 45.0;
  return config;
}

TEST(StructurePin, Montage) {
  EXPECT_EQ(digestOf(montage::buildMontageWorkflow(1.0)),
            "a52ff6cad883a997");
  EXPECT_EQ(digestOf(montage::buildMontageWorkflow(2.0)),
            "6dc8cb517bc49cec");
  EXPECT_EQ(digestOf(montage::buildMontageWorkflow(4.0)),
            "73dfded2e6081322");
}

TEST(StructurePin, Gallery) {
  const std::vector<Workflow> parts = gallery();
  EXPECT_EQ(digestOf(parts[0]), "cee1751ac9b814cd");
  EXPECT_EQ(digestOf(parts[1]), "8eccf9f72f3f8989");
  EXPECT_EQ(digestOf(parts[2]), "19293a942502cb56");
  EXPECT_EQ(digestOf(parts[3]), "706c3d942e04edf0");
}

TEST(StructurePin, RandomDags) {
  const char* const pins[] = {
      "8b5e7731d32726b6", "4373329223ef2ff2", "c023931ad9793c2a",
      "b9816150051695e7", "af3b91ae65cd55fe", "d78535f861c3e790",
      "b9b9c8796a685dc7", "dc8c71896ec0848a", "237d08151ce4252e",
      "3e9a17f229124462", "84fdec409e21dff0", "a7fb03a96b5958aa",
      "3fe53b2bf194cb70", "f6dd1e7057ce1d59", "68fe55b3c666a360",
      "461afce30b71617a", "3ecb7b930ce2de0d", "03730bf3b45896e7",
      "5a6b27f952c5b2d0", "34a86fe35217e1ff",
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    EXPECT_EQ(digestOf(makeRandomWorkflow(seed)), pins[seed - 1])
        << "seed " << seed;
}

TEST(StructurePin, SurveyWithOverlapAndRelease) {
  EXPECT_EQ(digestOf(workflows::buildSurveyCampaign(surveyConfig(0.2))),
            "4d49d3df6832c427");
}

TEST(StructurePin, SurveyShards) {
  EXPECT_EQ(digestOf(workflows::buildSurveyShards(surveyConfig(0.0), 3)),
            "414181e4a02a360b");
}

TEST(StructurePin, MergeReplicateStaggered) {
  const std::vector<Workflow> parts = gallery();
  EXPECT_EQ(digestOf(mergeWorkflows(parts, "pin-merge")), "2436b3e72aec5631");
  EXPECT_EQ(digestOf(replicateWorkflow(parts[0], 3, "pin-replicate")),
            "7f4ae129ec5a4dad");
  EXPECT_EQ(digestOf(mergeWorkflowsStaggered(parts, {0.0, 120.0, 0.0, 30.5},
                                             "pin-staggered")),
            "96a3ef4f8de3b921");
}

TEST(StructurePin, DaxRoundTrip) {
  const std::vector<Workflow> parts = gallery();
  EXPECT_EQ(digestOf(readDax(writeDax(parts[0]))), "c36fff5c01c5febb");
  EXPECT_EQ(digestOf(readDax(writeDax(parts[1]))), "ada4361bd5c5af2f");
  EXPECT_EQ(digestOf(readDax(writeDax(parts[2]))), "18adeff0d79faec3");
  EXPECT_EQ(digestOf(readDax(writeDax(parts[3]))), "973cac0fe37309c7");
}

}  // namespace
}  // namespace mcsim::dag
