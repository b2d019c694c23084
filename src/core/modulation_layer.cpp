#include "core/modulation_layer.hpp"

#include <cstring>
#include <stdexcept>

#include "optics/perturbation.hpp"

namespace lightridge {

ModulationLayer::ModulationLayer(std::shared_ptr<const Propagator> propagator,
                                 Real gamma)
    : propagator_(std::move(propagator)), gamma_(gamma)
{}

ModulationLayer::ModulationLayer(std::shared_ptr<const Propagator> propagator,
                                 Field table)
    : propagator_(std::move(propagator)), gamma_(1.0),
      table_(std::make_shared<ModulationTable>(
          ModulationTable{std::move(table), {}}))
{}

// Initializing in the member list (via shareTable(), which locks the
// source instance) keeps the constructor free of guarded-member writes.
ModulationLayer::ModulationLayer(const ModulationLayer &other)
    : Layer(other), propagator_(other.propagator_), gamma_(other.gamma_),
      table_(other.shareTable()), table_shared_(true)
{}

std::shared_ptr<ModulationTable>
ModulationLayer::shareTable() const
{
    MutexLock lock(table_mutex_);
    table_shared_ = true;
    return table_;
}

ModulationLayer::TablePtr
ModulationLayer::table() const
{
    const std::vector<Real> &params = tableParams();
    MutexLock lock(table_mutex_);
    if (table_ && table_->params.size() == params.size() &&
        (params.empty() ||
         std::memcmp(table_->params.data(), params.data(),
                     params.size() * sizeof(Real)) == 0))
        return table_;
    // Readers acquire the table only under this mutex, so a count of 1
    // means no reader holds it; a copy's readers synchronize with its own
    // mutex instead, so a table ever shared is never written again.
    if (!table_ || table_shared_ || table_.use_count() > 1) {
        table_ = std::make_shared<ModulationTable>();
        table_shared_ = false;
    }
    const std::size_t n = sideLength();
    ensureFieldShape(table_->table, n, n);
    buildTable(table_->table);
    table_->params.assign(params.begin(), params.end());
    return table_;
}

const Field &
ModulationLayer::trainingModulation(bool sample, TablePtr &hold)
{
    (void)sample;
    hold = table();
    return hold->table;
}

void
ModulationLayer::modulate(const Field &in, const Field &m, Field &out) const
{
    const LayerPerturbation *p = perturb_;
    if (p && p->has_noise) {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = gamma_ * in[i] * m[i] * p->noise[i];
        return;
    }
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = gamma_ * in[i] * m[i];
}

void
ModulationLayer::forwardInPlace(Field &u, PropagationWorkspace &workspace)
{
    const LayerPerturbation *p = perturb_;
    propagator_->forwardInto(u, diffracted_, workspace,
                             p ? &p->hop : nullptr);
    ensureFieldShape(u, diffracted_.rows(), diffracted_.cols());
    TablePtr hold;
    modulate(diffracted_, trainingModulation(/*sample=*/true, hold), u);
}

void
ModulationLayer::backwardInPlace(Field &g, PropagationWorkspace &workspace)
{
    if (diffracted_.size() != g.size())
        throw std::logic_error(kind() + " layer: backward before forward");
    TablePtr hold;
    const Field &m = trainingModulation(/*sample=*/false, hold);
    accumulateGrad(g, m);

    // G before modulation: G_diff = G_out * gamma * conj(M), times
    // conj(e^{j eps}) when a phase screen was applied.
    const LayerPerturbation *p = perturb_;
    if (p && p->has_noise) {
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] = g[i] * gamma_ * std::conj(m[i]) * p->noise_conj[i];
    } else {
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] = g[i] * gamma_ * std::conj(m[i]);
    }
    propagator_->adjointInto(g, g, workspace, p ? &p->hop : nullptr);
}

void
ModulationLayer::inferInPlace(Field &u, PropagationWorkspace &workspace) const
{
    TablePtr published = table();
    const LayerPerturbation *p = perturb_;
    propagator_->forwardInto(u, u, workspace, p ? &p->hop : nullptr);
    modulate(u, published->table, u);
}

FixedModulationLayer::FixedModulationLayer(
    std::shared_ptr<const Propagator> propagator, Field modulation)
    : ModulationLayer(std::move(propagator), std::move(modulation))
{
    const std::size_t n = sideLength();
    const Field &given = this->modulation();
    if (given.rows() != n || given.cols() != n)
        throw std::invalid_argument("FixedModulationLayer: shape mismatch");
}

const std::vector<Real> &
FixedModulationLayer::tableParams() const
{
    static const std::vector<Real> kNone;
    return kNone;
}

Json
FixedModulationLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    const Field &table = modulation();
    Json mod;
    for (std::size_t i = 0; i < table.size(); ++i) {
        mod.push(Json(table[i].real()));
        mod.push(Json(table[i].imag()));
    }
    j["modulation"] = std::move(mod);
    return j;
}

} // namespace lightridge
