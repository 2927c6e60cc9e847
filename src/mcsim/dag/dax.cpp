#include "mcsim/dag/dax.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mcsim/util/xml.hpp"

namespace mcsim::dag {
namespace {

double parseNumber(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(v))
      throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("dax: bad numeric value '" + text + "' for " + what);
  }
}

}  // namespace

Workflow readDax(std::string_view xmlText) {
  const auto root = xml::parse(xmlText);
  if (root->name != "adag")
    throw std::runtime_error("dax: root element must be <adag>, got <" +
                             root->name + ">");
  WorkflowBuilder wf(root->attr("name", "workflow"));

  std::map<std::string, TaskId> taskByJobId;
  std::map<std::string, std::pair<FileId, Bytes>> fileByName;

  auto internFile = [&](const std::string& name, Bytes size) {
    auto it = fileByName.find(name);
    if (it != fileByName.end()) {
      const auto& [id, existing] = it->second;
      if (std::fabs(existing.value() - size.value()) > 0.5)
        throw std::runtime_error("dax: file '" + name +
                                 "' mentioned with conflicting sizes");
      return id;
    }
    const FileId id = wf.addFile(name, size);
    fileByName.emplace(name, std::make_pair(id, size));
    return id;
  };

  for (const xml::Element* job : root->childrenNamed("job")) {
    const std::string& jobId = job->requiredAttr("id");
    const std::string& name = job->attr("name", jobId);
    const std::string& type = job->attr("type", name);
    const double runtime = parseNumber(job->requiredAttr("runtime"),
                                       "job runtime of " + jobId);
    const TaskId task = wf.addTask(name, type, runtime);
    if (job->hasAttr("release"))
      wf.setEarliestStart(task, parseNumber(job->attr("release"),
                                            "release time of " + jobId));
    if (!taskByJobId.emplace(jobId, task).second)
      throw std::runtime_error("dax: duplicate job id '" + jobId + "'");

    for (const xml::Element* uses : job->childrenNamed("uses")) {
      const std::string& fileName = uses->requiredAttr("file");
      const Bytes size{parseNumber(uses->requiredAttr("size"),
                                   "size of file " + fileName)};
      const std::string& link = uses->requiredAttr("link");
      const FileId file = internFile(fileName, size);
      if (link == "input") {
        wf.addInput(task, file);
      } else if (link == "output") {
        wf.addOutput(task, file);
        // Pegasus-style transfer flag: the file is a user product that must
        // be staged out even if later tasks also consume it.
        if (uses->attr("transfer") == "true") wf.markExplicitOutput(file);
      } else {
        throw std::runtime_error("dax: unknown link kind '" + link +
                                 "' (want input|output)");
      }
    }
  }

  for (const xml::Element* child : root->childrenNamed("child")) {
    const std::string& childRef = child->requiredAttr("ref");
    auto cIt = taskByJobId.find(childRef);
    if (cIt == taskByJobId.end())
      throw std::runtime_error("dax: <child ref> references unknown job '" +
                               childRef + "'");
    for (const xml::Element* parent : child->childrenNamed("parent")) {
      const std::string& parentRef = parent->requiredAttr("ref");
      auto pIt = taskByJobId.find(parentRef);
      if (pIt == taskByJobId.end())
        throw std::runtime_error("dax: <parent ref> references unknown job '" +
                                 parentRef + "'");
      wf.addControlDependency(pIt->second, cIt->second);
    }
  }

  return wf.build();
}

Workflow readDaxFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("dax: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return readDax(buffer.str());
}

std::string writeDax(const Workflow& wf) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<adag name=\"" << xml::escape(wf.name()) << "\">\n";
  os.precision(17);
  for (const Task& t : wf.tasks()) {
    os << "  <job id=\"ID" << t.id << "\" name=\"" << xml::escape(t.name)
       << "\" type=\"" << xml::escape(t.type) << "\" runtime=\""
       << t.runtimeSeconds << "\"";
    if (t.earliestStartSeconds > 0.0)
      os << " release=\"" << t.earliestStartSeconds << "\"";
    os << ">\n";
    for (FileId f : t.inputs)
      os << "    <uses file=\"" << xml::escape(wf.file(f).name)
         << "\" link=\"input\" size=\"" << wf.file(f).size.value() << "\"/>\n";
    for (FileId f : t.outputs) {
      os << "    <uses file=\"" << xml::escape(wf.file(f).name)
         << "\" link=\"output\" size=\"" << wf.file(f).size.value() << "\"";
      if (wf.file(f).explicitOutput) os << " transfer=\"true\"";
      os << "/>\n";
    }
    os << "  </job>\n";
  }
  for (const auto& [parent, child] : wf.controlDependencies()) {
    os << "  <child ref=\"ID" << child << "\"><parent ref=\"ID" << parent
       << "\"/></child>\n";
  }
  os << "</adag>\n";
  return os.str();
}

void writeDaxFile(const Workflow& wf, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("dax: cannot write '" + path + "'");
  out << writeDax(wf);
}

}  // namespace mcsim::dag
