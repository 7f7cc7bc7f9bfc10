// Hashes the shard router (src/shard/shard_router.h) reduces to a
// shard index.
//
// Determinism is load-bearing: routing must be a pure function of the
// query text with no platform dependence, so the same query lands on
// the same shard in every run, every test, and the fuzz harness's
// replayed scenarios. The hashes below are FNV-1a finalized with a
// splitmix64 mix — FNV's low bit is the parity of the input bytes, so
// reducing it with a bare modulo would stripe queries by text parity;
// always finalize first.

#ifndef QSYS_STORAGE_PARTITION_H_
#define QSYS_STORAGE_PARTITION_H_

#include <cstdint>
#include <string>

namespace qsys {

/// 64-bit FNV-1a over the bytes of `s`.
uint64_t Fnv1a64(const std::string& s);

/// Splitmix64 finalizer: spreads consecutive/structured inputs across
/// the full 64-bit range so a modulo reduction is unbiased in its low
/// bits (FNV-1a alone is not — its low bit is input parity).
uint64_t MixBits64(uint64_t x);

}  // namespace qsys

#endif  // QSYS_STORAGE_PARTITION_H_
