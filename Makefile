PYTHON ?= python
COMPOSE ?= docker compose -f docker/docker-compose.yml

export PYTHONPATH := src

.PHONY: test test-fast bench-load bench-store compose-gen \
        fleet-build fleet-up fleet-down fleet-logs fleet-health

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

bench-load:
	$(PYTHON) -m repro load sweep --quick --check

bench-store:
	$(PYTHON) benchmarks/bench_store_recovery.py --quick --check

compose-gen:
	$(PYTHON) scripts/gen_compose.py --out docker/docker-compose.yml

# --- Dockerised RtLab fleet (see docker/README.md) ------------------------

fleet-build:
	docker build -f docker/Dockerfile.base -t repro-base .
	docker build -f docker/Dockerfile.replica -t repro-replica .
	docker build -f docker/Dockerfile.client -t repro-client .

fleet-up: fleet-build
	$(COMPOSE) up -d

fleet-down:
	$(COMPOSE) down -v

fleet-logs:
	$(COMPOSE) logs -f

fleet-health:
	$(COMPOSE) ps --format "table {{.Name}}\t{{.Status}}"
