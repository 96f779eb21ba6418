# Developer entry points.

PYTHON ?= python

.PHONY: install test bench figures docs campaign-smoke trace-smoke serve-smoke fleet-smoke durable-smoke live-smoke sweeps clean

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

campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py --workers 4

trace-smoke:
	$(PYTHON) scripts/trace_smoke.py

serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

fleet-smoke:
	$(PYTHON) scripts/fleet_smoke.py

durable-smoke:
	$(PYTHON) scripts/durable_smoke.py

live-smoke:
	$(PYTHON) scripts/live_smoke.py

sweeps:
	$(PYTHON) scripts/sweep_local_vs_cxl.py
	$(PYTHON) scripts/sweep_interleave.py

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
