#include "serve/api.hpp"

#include <cmath>
#include <stdexcept>

namespace lightridge {

const char *
serveStatusName(ServeStatus status)
{
    switch (status) {
      case ServeStatus::Ok: return "ok";
      case ServeStatus::DeadlineExceeded: return "deadline_exceeded";
      case ServeStatus::Overloaded: return "overloaded";
      case ServeStatus::UnknownModel: return "unknown_model";
      case ServeStatus::BadInput: return "bad_input";
    }
    return "unknown";
}

const char *
priorityName(Priority priority)
{
    switch (priority) {
      case Priority::Interactive: return "interactive";
      case Priority::Batch: return "batch";
      case Priority::BestEffort: return "best_effort";
    }
    return "unknown";
}

Priority
priorityFromName(const std::string &name)
{
    if (name == "interactive")
        return Priority::Interactive;
    if (name == "batch")
        return Priority::Batch;
    if (name == "best_effort")
        return Priority::BestEffort;
    throw std::invalid_argument("unknown priority: " + name);
}

const char *
fusionRuleName(FusionRule rule)
{
    switch (rule) {
      case FusionRule::MeanLogits: return "mean_logits";
      case FusionRule::MeanProbs: return "mean_probs";
      case FusionRule::Vote: return "vote";
    }
    return "unknown";
}

FusionRule
fusionRuleFromName(const std::string &name)
{
    if (name == "mean_logits")
        return FusionRule::MeanLogits;
    if (name == "mean_probs")
        return FusionRule::MeanProbs;
    if (name == "vote")
        return FusionRule::Vote;
    throw std::invalid_argument("unknown fusion rule: " + name);
}

void
fuseLogits(FusionRule rule,
           const std::vector<std::vector<Real>> &member_logits,
           std::vector<Real> &out)
{
    if (member_logits.empty())
        throw std::invalid_argument("fuseLogits: no member logits");
    const std::size_t classes = member_logits.front().size();
    for (const std::vector<Real> &logits : member_logits)
        if (logits.size() != classes)
            throw std::invalid_argument(
                "fuseLogits: members disagree on class count");
    out.assign(classes, Real(0));
    const Real inv = Real(1) / static_cast<Real>(member_logits.size());
    switch (rule) {
      case FusionRule::MeanLogits:
        for (const std::vector<Real> &logits : member_logits)
            for (std::size_t c = 0; c < classes; ++c)
                out[c] += logits[c];
        for (std::size_t c = 0; c < classes; ++c)
            out[c] *= inv;
        break;
      case FusionRule::MeanProbs:
        for (const std::vector<Real> &logits : member_logits) {
            // Max-stabilized softmax: exp never overflows and the
            // result is invariant to a per-member logit offset.
            Real peak = logits[0];
            for (std::size_t c = 1; c < classes; ++c)
                peak = logits[c] > peak ? logits[c] : peak;
            Real denom = 0;
            for (std::size_t c = 0; c < classes; ++c)
                denom += std::exp(logits[c] - peak);
            for (std::size_t c = 0; c < classes; ++c)
                out[c] += std::exp(logits[c] - peak) / denom * inv;
        }
        break;
      case FusionRule::Vote:
        for (const std::vector<Real> &logits : member_logits) {
            std::size_t vote = 0;
            for (std::size_t c = 1; c < classes; ++c)
                if (logits[c] > logits[vote])
                    vote = c;
            out[vote] += Real(1);
        }
        break;
    }
}

} // namespace lightridge
