#pragma once

#include <cstdint>

/// operator new calls the whole test binary has made so far. A test binary
/// that links alloc_counter.cpp gets a counting global operator new, so the
/// difference across a window is what that window allocated.
std::uint64_t allocation_count();
