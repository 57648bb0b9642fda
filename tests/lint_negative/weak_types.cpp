// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// In src/transport/, src/wire/ and src/fl/, ids and byte counts are the
// strong newtypes from util/ids.h (ClientId, RoundId, SeqNo, ByteCount).
// Bare integers reintroduce the transposed-argument and unit-confusion bugs
// those types exist to prevent — e.g. swapping (client, round) compiles
// silently with two uint64_t parameters. The lint-place marker puts this
// file under src/transport/, and every marked line below must be reported.
#include <cstddef>
#include <cstdint>

namespace fixture {

struct WeakFrame {
  std::uint64_t client;   // should be ClientId  // lint-expect: strong-type
  std::size_t round;      // should be RoundId  // lint-expect: strong-type
  std::uint32_t seq_no;   // should be SeqNo  // lint-expect: strong-type
  std::size_t payload_bytes;  // should be ByteCount  // lint-expect: strong-type
};

void price_link(std::uint64_t client_id, std::size_t bytes);  // lint-expect: strong-type

double cost_model(std::size_t round, double per_byte);  // lint-expect: strong-type

}  // namespace fixture
