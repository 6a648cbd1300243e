"""Datasets of copied rows, for tests that reorder, repeat or drop
trajectories.  ``Dataset.subset`` makes views only, a window of rows or one
member of a stack, so any other selection of rows is a new dataset built
through the public constructor, which validates it again."""

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
