# Developer entry points.

PYTHON ?= python

.PHONY: install test bench figures docs sweeps clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) scripts/export_figures.py

docs:
	$(PYTHON) scripts/gen_counter_docs.py

sweeps:
	$(PYTHON) scripts/sweep_local_vs_cxl.py
	$(PYTHON) scripts/sweep_interleave.py

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
