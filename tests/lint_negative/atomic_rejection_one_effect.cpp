// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// One caller-visible effect per sync hook, each reached a different way:
// an element write through an alias, a mutating call on the caller's
// proposal, a member rng draw, a helper that writes only a member, and a
// helper that writes only its reference parameter. Each precedes the
// validation call, so each is a rejection that leaves the round
// half-applied.
#include <vector>

namespace fixture {

struct Rng {
  double normal();
};

struct AliasWrite {
  void synchronize(std::vector<std::vector<float>>& client_params,
                   double weight) {
    for (auto& params : client_params) {
      params[0] = 0.0f;  // lint-expect: atomic-reject
    }
    require_round_inputs(client_params, weight);
  }
};

struct MutatorCall {
  void synchronize(std::vector<float>& client_params, double weight) {
    client_params.clear();  // lint-expect: atomic-reject
    require_round_inputs(client_params, weight);
  }
};

struct RngDraw {
  void synchronize(std::vector<float>& client_params, double weight) {
    const double jitter = rng_.normal();  // lint-expect: atomic-reject
    require_round_inputs(client_params, weight + jitter);
  }

  Rng rng_;
};

struct HelperMember {
  void count_call() { calls_ += 1; }

  void synchronize(std::vector<float>& client_params, double weight) {
    count_call();  // lint-expect: atomic-reject
    require_round_inputs(client_params, weight);
  }

  int calls_ = 0;
};

struct HelperParam {
  static void zero(std::vector<float>& out) {
    for (auto& v : out) v = 0.0f;
  }

  void synchronize(std::vector<float>& client_params, double weight) {
    zero(client_params);  // lint-expect: atomic-reject
    require_round_inputs(client_params, weight);
  }
};

}  // namespace fixture
