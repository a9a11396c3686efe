#pragma once

#include <cstdint>

/// operator new calls the whole test binary has made so far. A test binary
/// that links alloc_counter.cpp gets a counting global operator new, so the
/// difference across a window is what that window allocated.
std::uint64_t allocation_count();

/// Bytes held by live operator new allocations (malloc's usable size of
/// each block, so allocator rounding counts), net of every operator delete.
/// The difference across a window is what the window left allocated.
std::int64_t live_bytes();
