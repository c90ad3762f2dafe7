"""Straight-line re-implementation of the forecasting pipeline for oracle use.

Written deliberately without the package's module structure: dense
adjacency built by direct case analysis, index loops instead of stacked
linear algebra where feasible, and the interaction term computed as the
explicit ordered-pair double sum rather than its factorized form.  Kept
independent so tests can compare the production path against it.
"""

import numpy as np


def dense_adjacency(edges, n, t_steps):
    weight = {(u, v): w for u, v, w in edges}
    size = n * t_steps
    a = np.zeros((size, size))
    for t in range(t_steps):
        for tp in range(t_steps):
            for i in range(n):
                for j in range(n):
                    if i == j and tp in (t, t + 1):
                        a[t * n + i, tp * n + j] = 1.0
                    elif t == tp and i != j:
                        a[t * n + i, tp * n + j] = weight.get((i, j), 0.0)
    return a


def dense_normalized_adjacency(edges, n, t_steps):
    a = dense_adjacency(edges, n, t_steps)
    for row in range(n * t_steps):
        a[row] /= a[row].sum()
    return a


def reference_forward(x, edges, n, cfg, params):
    """cfg: dict with lookback, horizon, width, n_hyperedges, windows,
    encoder_layers, scale_iters; other keys are ignored.  params: name ->
    ndarray."""
    t_steps = cfg["lookback"]
    d = cfg["width"]

    h = np.zeros((t_steps * n, d))
    for t in range(t_steps):
        for i in range(n):
            h[t * n + i] = (x[t, i] @ params["encoder.input_proj"]
                            + params["encoder.spatial"][i]
                            + params["encoder.temporal"][t])

    abar = dense_normalized_adjacency(edges, n, t_steps)
    for layer in range(cfg["encoder_layers"]):
        h = np.maximum(abar @ h @ params[f"encoder.layer{layer}"], 0.0)
    h_last = h[(t_steps - 1) * n: t_steps * n]

    per_scale = []
    for eps in cfg["windows"]:
        steps = t_steps // eps
        delta = np.zeros((steps * n, d))
        for k in range(steps):
            for i in range(n):
                rows = [h[(k * eps + r) * n + i] for r in range(eps)]
                delta[k * n + i] = np.max(np.stack(rows), axis=0)

        abar_eps = dense_normalized_adjacency(edges, n, steps)
        w_fac = params[f"scale{eps}.hyper.factor"]
        w_rel = params[f"scale{eps}.hyper.relations"]
        w1 = params[f"scale{eps}.inter.pair_left"]
        w2 = params[f"scale{eps}.inter.pair_right"]
        w3 = params[f"scale{eps}.inter.through"]

        for _ in range(cfg["scale_iters"]):
            lam = delta @ w_fac
            pooled = lam.T @ delta
            edge_emb = np.maximum(w_rel @ pooled, 0.0) + pooled
            hyper = lam @ edge_emb

            hw1 = delta @ w1
            hw2 = delta @ w2
            pi = np.zeros_like(delta)
            for u in range(steps * n):
                neighbors = np.nonzero(abar_eps[u])[0]
                acc = np.zeros(d)
                for j in neighbors:
                    for jp in neighbors:
                        acc += abar_eps[u, j] * abar_eps[u, jp] * (hw1[j] * hw2[jp])
                pi[u] = np.maximum(acc, 0.0)
            inter = pi + np.maximum(abar_eps @ delta @ w3, 0.0)

            delta = 0.5 * (hyper + inter)

        gamma = np.zeros((n, d))
        for i in range(n):
            gamma[i] = np.mean([delta[k * n + i] for k in range(steps)], axis=0)
        per_scale.append(gamma)

    weights = np.exp(params["fusion_logits"])
    weights = weights / weights.sum()
    fused = np.zeros((n, d))
    for j, gamma in enumerate(per_scale):
        fused += weights[j] * gamma

    horizon = params["readout_b"].shape[0]
    out = np.zeros((horizon, n))
    for i in range(n):
        features = np.concatenate([fused[i], h_last[i]])
        out[:, i] = features @ params["readout_w"] + params["readout_b"]
    return out
