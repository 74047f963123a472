"""The paper's contribution: adaptive collection-rate policies and estimators."""
