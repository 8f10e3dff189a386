/**
 * @file
 * Behavioural response profile of one (model, precision, dataset)
 * combination.  Built from the embedded paper anchors: a saturating
 * ability curve is fitted through the non-truncated configurations,
 * every anchor configuration resolves exactly to its published
 * behaviour, and non-anchor budgets interpolate (log-linearly in the
 * budget) between anchors.  Hard truncation is modelled as a
 * parse-failure probability on top of the curve, which is what lets
 * accuracy fall below the multiple-choice guess floor (Table XI's 15.9%
 * at 128T) and what makes plurality voting degrade for weak truncated
 * configurations (Fig. 9a).
 */

#ifndef EDGEREASON_ACCURACY_PROFILE_HH
#define EDGEREASON_ACCURACY_PROFILE_HH

#include <memory>
#include <vector>

#include "accuracy/anchors.hh"
#include "accuracy/dataset.hh"
#include "accuracy/scaling_law.hh"
#include "model/model_id.hh"
#include "strategy/policy.hh"

namespace edgereason {
namespace acc {

/** Resolved behaviour of one configuration. */
struct ConfigBehavior
{
    strategy::TokenPolicy policy;
    double meanTokens = 0.0;   //!< mean decoded tokens per question
    double ability = 0.0;      //!< IRT ability of valid samples
    double parseFail = 0.0;    //!< probability a sample is unparseable
    bool fromAnchor = false;   //!< resolved exactly from published data
};

/** Behavioural profile of a model on a dataset. */
class ResponseProfile
{
  public:
    /**
     * Build a profile.  fatal()s if the paper provides no anchors for
     * the combination (use hasAnchors() to probe).
     */
    ResponseProfile(model::ModelId id, Dataset dataset, bool quantized);

    /** Resolve a policy to its behaviour (anchor-exact or interpolated). */
    ConfigBehavior resolve(const strategy::TokenPolicy &policy) const;

    /** Dataset-expected accuracy (fraction in [0,1]) of a policy at SF=1. */
    double expectedAccuracy(const strategy::TokenPolicy &policy) const;

    /** Mean decoded tokens per question under a policy. */
    double meanTokens(const strategy::TokenPolicy &policy) const;

    /**
     * Per-sample correctness probability on a question of the given
     * difficulty (excludes parse failures; see ConfigBehavior::parseFail).
     */
    double sampleCorrectProb(const ConfigBehavior &cfg,
                             double difficulty) const;

    /**
     * Correlation of correctness across parallel samples of the same
     * question (Gaussian-copula rho).  High for budget-aware models
     * whose short outputs are nearly deterministic, moderate for
     * reasoning models (calibrated to Fig. 9).
     */
    double sampleCorrelation() const { return rho_; }

    /** Coefficient of variation of per-question output lengths. */
    double lengthCv() const { return length_cv_; }

    /** @return the fitted sequential-scaling ability curve. */
    const AbilityCurve &curve() const { return curve_; }
    /** @return dataset properties. */
    const DatasetInfo &info() const { return info_; }
    /** @return model identity. */
    model::ModelId modelId() const { return id_; }
    /** @return dataset identity. */
    Dataset dataset() const { return dataset_; }
    /** @return true for W4A16 profiles. */
    bool quantized() const { return quantized_; }

  private:
    const ConfigBehavior *findAnchor(
        const strategy::TokenPolicy &policy) const;
    ConfigBehavior interpolate(const strategy::TokenPolicy &policy) const;
    ConfigBehavior baseBehavior() const;

    model::ModelId id_;
    Dataset dataset_;
    bool quantized_;
    DatasetInfo info_;
    AbilityCurve curve_;
    std::vector<ConfigBehavior> resolved_;
    double rho_ = 0.45;
    double length_cv_ = 0.55;
    /**
     * FP16 profile of the same model, used to resolve budgeted
     * policies on quantized profiles whose published anchors cover
     * only the Base configuration.  Table XII shows quantized budget
     * rows tracking their FP16 counterparts closely, so the FP16
     * config structure is borrowed and shifted by the quantization
     * delta at Base.
     */
    std::unique_ptr<ResponseProfile> fp16Fallback_;
};

} // namespace acc
} // namespace edgereason

#endif // EDGEREASON_ACCURACY_PROFILE_HH
