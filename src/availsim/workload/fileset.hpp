#pragma once

#include <cstddef>

namespace availsim::workload {

using FileId = int;

/// The served document population. Following the paper's methodology we
/// make every file the same size (they flattened their Rutgers trace to
/// uniform 27 KB files so that delivered throughput is stable and the
/// measured availability decouples from fault injection time).
struct FileSet {
  int count = 26000;
  std::size_t file_bytes = 27 * 1024;
};

}  // namespace availsim::workload
