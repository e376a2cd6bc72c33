#pragma once

// Crash-safe file replacement: write-temp, fsync, rename. After a crash
// (SIGKILL included) at any byte, the destination either holds its
// previous contents or the complete new contents -- never a torn prefix.
// The suite journal writes through here.

#include <string>

namespace rdcn {

/// Atomically replaces `path` with `contents`: writes `path + ".tmp"`,
/// fsyncs it, renames over `path`, then fsyncs the directory so the
/// rename itself survives power loss. Throws std::runtime_error (with
/// errno context) on any I/O failure; the temp file is removed on error.
void atomic_write_file(const std::string& path, const std::string& contents);

}  // namespace rdcn
