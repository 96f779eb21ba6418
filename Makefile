# Developer entry points.

PYTHON ?= python

.PHONY: install test bench figures docs clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The benches assert the paper's shapes and re-record results/*.csv;
# a table that moved fails its test and is left for the change to commit.
bench figures:
	$(PYTHON) -m pytest benchmarks/ -q

docs:
	$(PYTHON) scripts/gen_counter_docs.py

clean:
	rm -rf results/cache .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
