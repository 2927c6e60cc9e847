// DAX-style XML workflow serialization.
//
// The paper's workflows are produced by Montage's mDAG "in XML format" and
// parsed into an adjacency-list graph (§5).  We read and write the Pegasus
// DAX dialect's structural subset:
//
//   <adag name="montage-1deg">
//     <job id="ID00001" name="mProject_1" type="mProject" runtime="98.5">
//       <uses file="in_1.fits" link="input" size="4000000"/>
//       <uses file="proj_1.fits" link="output" size="16000000"/>
//     </job>
//     ...
//     <child ref="ID00002"><parent ref="ID00001"/></child>   (optional)
//   </adag>
//
// File identity is by name: two <uses> entries with the same file name refer
// to the same logical file, which is how data dependencies arise.  Explicit
// <child>/<parent> entries add control-only edges.  Sizes are bytes;
// runtimes are seconds.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "mcsim/dag/workflow.hpp"

namespace mcsim::dag {

/// Parse a DAX document into a workflow.
/// Throws xml::ParseError on malformed XML and std::runtime_error on
/// structural problems (unknown link kind, duplicate job id, size mismatch
/// between two mentions of one file, ...); graph errors surface as the
/// WorkflowBuilder's exceptions (a second producer, a cycle, ...).
Workflow readDax(std::string_view xmlText);

/// Read a DAX file from disk.
Workflow readDaxFile(const std::string& path);

/// Serialize a workflow as DAX.  Reading the output back yields an
/// equivalent workflow (same tasks, files, sizes, runtimes, dependencies).
std::string writeDax(const Workflow& wf);

/// Write DAX to a file on disk.
void writeDaxFile(const Workflow& wf, const std::string& path);

}  // namespace mcsim::dag
