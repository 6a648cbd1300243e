"""Datasets of copied rows, for tests that reorder, repeat or drop
trajectories, stacks of built datasets, and datasets of scaled covariates.
``Dataset.subset`` makes views only, a window of rows or one member of a
stack, so any other selection of rows, any stack and any rescaling is a new
dataset built through the public constructor, which validates it again."""

import numpy as np

from dtr_adhere.model import Dataset


def copy_rows(data: Dataset, index) -> Dataset:
    """The trajectories an index array or list picks from ``data``, in its
    order, as a new dataset of copied columns."""
    stages = range(1, data.n_stages + 1)

    def pick(column):
        return None if column is None else column[index]

    return Dataset(
        stage_covariates=[{name: pick(data.covariate(name, j)) for name in data.covariate_names}
                          for j in stages],
        proxy=[pick(data.proxy(j)) for j in stages],
        proxy_kind=data.proxy_kind,
        actual=[pick(data.actual(j)) for j in stages],
        validation=pick(data.validation),
        outcome=pick(data.outcome),
    )


def stack_datasets(datasets) -> Dataset:
    """Equal-size datasets of one schema as the members of one stacked
    dataset: each column is (b, n), member i's row r being row r of
    ``datasets[i]``, and the validation flags are (b, n, K)."""
    first = datasets[0]
    stages = range(1, first.n_stages + 1)

    def stacked(columns):
        columns = list(columns)
        return None if columns[0] is None else np.stack(columns)

    return Dataset(
        stage_covariates=[{name: stacked(data.covariate(name, j) for data in datasets)
                           for name in first.covariate_names} for j in stages],
        proxy=[stacked(data.proxy(j) for data in datasets) for j in stages],
        proxy_kind=first.proxy_kind,
        actual=[stacked(data.actual(j) for data in datasets) for j in stages],
        validation=stacked(data.validation for data in datasets),
        outcome=stacked(data.outcome for data in datasets),
    )


def scale_covariates(data: Dataset, scale: float) -> Dataset:
    """``data`` with every covariate multiplied by ``scale``, as a new
    dataset; its treatments, proxies, flags and outcome are shared."""
    stages = range(1, data.n_stages + 1)
    return Dataset(
        stage_covariates=[{name: data.covariate(name, j) * scale for name in data.covariate_names}
                          for j in stages],
        proxy=[data.proxy(j) for j in stages],
        proxy_kind=data.proxy_kind,
        actual=[data.actual(j) for j in stages],
        validation=data.validation,
        outcome=data.outcome,
    )
