// Wall-clock microbenchmarks (google-benchmark) for the primitives every GDN
// message crosses: SHA-256, HMAC-SHA-256, the CTR keystream cipher, and the manual
// serializers. These are real CPU numbers (not simulated), and calibrate the
// CryptoProfile constants used by the simulated TLS channels in E6.

#include <benchmark/benchmark.h>

#include "src/dso/invocation.h"
#include "src/gdn/package.h"
#include "src/sec/cipher.h"
#include "src/util/hmac.h"
#include "src/util/rng.h"
#include "src/util/serial.h"
#include "src/util/sha256.h"

namespace globe {
namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto digest = Sha256::Digest(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.RandomBytes(32);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes mac = HmacSha256(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_StreamCipher(benchmark::State& state) {
  Rng rng(3);
  Bytes key = rng.RandomBytes(32);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  uint64_t nonce = 0;
  for (auto _ : state) {
    sec::ApplyKeystream(key, nonce++, &data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamCipher)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_SerializeInvocation(benchmark::State& state) {
  Rng rng(4);
  Bytes content = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    dso::Invocation invocation = gdn::pkg::kAddFile.Marshal({"bin/tool", content});
    Bytes encoded = wire::Encode(invocation);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeInvocation)->Arg(1024)->Arg(65536);

void BM_DeserializeInvocation(benchmark::State& state) {
  Rng rng(5);
  Bytes content = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  Bytes encoded = wire::Encode(gdn::pkg::kAddFile.Marshal({"bin/tool", content}));
  for (auto _ : state) {
    auto invocation = wire::Decode<dso::Invocation>(encoded);
    benchmark::DoNotOptimize(invocation);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeserializeInvocation)->Arg(1024)->Arg(65536);

void BM_PackageStateRoundTrip(benchmark::State& state) {
  Rng rng(6);
  gdn::PackageObject package;
  for (int i = 0; i < 8; ++i) {
    auto add = gdn::pkg::kAddFile.Marshal(
        {"file" + std::to_string(i),
         rng.RandomBytes(static_cast<size_t>(state.range(0)) / 8)});
    (void)package.Invoke(add);
  }
  for (auto _ : state) {
    Bytes blob = package.GetState();
    gdn::PackageObject restored;
    Status status = restored.SetState(blob);
    benchmark::DoNotOptimize(status);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackageStateRoundTrip)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace globe

BENCHMARK_MAIN();
