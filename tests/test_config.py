"""Schema validation for experiment configuration files."""

import json
import math

import pytest

from fracvar import COMMANDS, constant_kernel, load_config
from fracvar.errors import ConfigError, FracvarError, ParseError


def write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_op_apply():
    return {
        "command": "op-apply",
        "problem": {
            "op": "K",
            "psets": [[1.0, 0.0]],
            "orders": [0.5],
            "field": "t1^2",
        },
        "output_path": "out.csv",
    }


def base_ibp():
    return {
        "command": "ibp-check",
        "problem": {
            "psets": [[0.6, 0.4]],
            "orders": [0.5],
            "f": "sin(3*t1)",
            "eta": "t1*(1 - t1)",
        },
        "output_path": "out.csv",
    }


def base_el():
    return {
        "command": "el-residual",
        "problem": {
            "psets1": [[0.6, 0.4]],
            "psets2": [[0.3, 0.7]],
            "alphas": [0.4],
            "betas": [0.6],
            "lagrangian": "dirichlet_energy",
            "field": "t1*(1 - t1)",
        },
        "output_path": "out.csv",
    }


def base_noether():
    cfg = base_el()
    cfg["command"] = "noether-check"
    del cfg["problem"]["field"]
    cfg["problem"]["generator"] = "1"
    return cfg


def base_dirichlet():
    return {
        "command": "dirichlet-solve",
        "problem": {
            "psets": [[0.5, 0.5]],
            "alphas": [0.5],
            "boundary": "t1",
        },
        "output_path": "out.csv",
    }


def base_wave():
    return {
        "command": "wave-residual",
        "problem": {
            "ndim": 2,
            "psets": [[1.0, 0.0]],
            "alphas": [0.5],
            "field": "0.25 + 1.5*x",
        },
        "output_path": "out.csv",
    }


class TestRootSchema:
    def test_happy_path_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, base_op_apply()))
        assert cfg.command == "op-apply"
        assert cfg.sweep is None
        assert cfg.tolerances == {}
        assert cfg.seed == 42
        assert cfg.output_path == "out.csv"

    def test_full_fields(self, tmp_path):
        payload = base_op_apply()
        payload.update(sweep=[16, 32], seed=7,
                       tolerances={"abs_error_max": 1e-3},
                       description="a note; ignored by the loader")
        cfg = load_config(write(tmp_path, payload))
        assert cfg.sweep == (16, 32)
        assert cfg.seed == 7
        assert cfg.tolerances == {"abs_error_max": 1e-3}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_literals_rejected(self, tmp_path, value):
        # json.dumps writes NaN, Infinity and -Infinity, which Python's json
        # reads back but strict JSON does not have.
        payload = base_dirichlet()
        payload["problem"]["tol"] = value
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(write(tmp_path, payload))

    def test_non_finite_tolerance_bound_rejected(self, tmp_path):
        payload = base_dirichlet()
        payload["tolerances"] = {"bvp_residual": math.nan}
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("key, text", [
        ("tol", "1e999"), ("interval", "[0, 1e999]"),
        ("interval", "[0, 1" + "0" * 400 + "]")])
    def test_overflowing_numbers_rejected(self, tmp_path, key, text):
        # Valid JSON numbers without a finite float value: 1e999 reads as
        # inf, and float() of a 401-digit integer raises OverflowError.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_dirichlet()).replace(
            '"alphas"', f'"{key}": {text}, "alphas"'), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.field == key

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="root"):
            load_config(str(path))

    def test_unknown_command(self, tmp_path):
        payload = base_op_apply()
        payload["command"] = "frobnicate"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "command"
        for name in COMMANDS:
            assert name in str(exc.value)

    def test_problem_must_be_object(self, tmp_path):
        payload = base_op_apply()
        payload["problem"] = "nope"
        with pytest.raises(ConfigError, match="'problem'"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("sweep", ["64", [], [2], [64, "a"], [64.0],
                                       [64, 128, 64]])
    def test_bad_sweep(self, tmp_path, sweep):
        payload = base_op_apply()
        payload["sweep"] = sweep
        with pytest.raises(ConfigError, match="sweep"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("tolerances", [[], [["abs_error", 1e-3]], 1e-3,
                                            "abs_error"])
    def test_tolerances_must_be_an_object(self, tmp_path, tolerances):
        payload = base_op_apply()
        payload["tolerances"] = tolerances
        with pytest.raises(ConfigError, match="must be an object") as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "tolerances"

    @pytest.mark.parametrize("value", ["tight", True, False])
    def test_bad_tolerance_value(self, tmp_path, value):
        payload = base_op_apply()
        payload["tolerances"] = {"abs_error": value}
        with pytest.raises(ConfigError, match="abs_error"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("rng", [1.0, [1.0], [1.0, "hi"], [1, 2, 3],
                                     [True, 2.0], [1.0, False]])
    def test_bad_order_est_range(self, tmp_path, rng):
        payload = base_op_apply()
        payload["tolerances"] = {"order_est_range": rng}
        with pytest.raises(ConfigError, match="order_est_range"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("seed", ["7", True, False])
    def test_bad_seed(self, tmp_path, seed):
        payload = base_op_apply()
        payload["seed"] = seed
        with pytest.raises(ConfigError, match="seed"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("out", [None, "", 3])
    def test_bad_output_path(self, tmp_path, out):
        payload = base_op_apply()
        if out is None:
            del payload["output_path"]
        else:
            payload["output_path"] = out
        with pytest.raises(ConfigError, match="output_path"):
            load_config(write(tmp_path, payload))


class TestProblemBlocks:
    @pytest.mark.parametrize("interval", [[1.0, 0.0], [False, True],
                                          [0.0, True]])
    def test_bad_interval(self, tmp_path, interval):
        payload = base_op_apply()
        payload["problem"]["interval"] = interval
        with pytest.raises(ConfigError, match="interval"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("ndim", [0, 4, "x", 1.7, True])
    def test_ndim_bounds(self, tmp_path, ndim):
        payload = base_op_apply()
        payload["problem"]["ndim"] = ndim
        with pytest.raises(ConfigError, match="ndim"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("size", ["abc", 64.9, 64.0, 2, None])
    def test_bad_size(self, tmp_path, size):
        payload = base_op_apply()
        payload["problem"]["size"] = size
        with pytest.raises(ConfigError, match="'size'") as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "size"

    def test_bad_op(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["op"] = "Q"
        with pytest.raises(ConfigError, match="'op'"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("psets", [[[1.0]], [[1.0, 0.0], [1.0, 0.0]],
                                       "all", [["p", "q"]], [[True, 0.0]],
                                       [[1.0, False]]])
    def test_bad_psets(self, tmp_path, psets):
        payload = base_op_apply()
        payload["problem"]["psets"] = psets
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("orders", [None, [True], [False]])
    def test_missing_orders(self, tmp_path, orders):
        payload = base_op_apply()
        if orders is None:
            del payload["problem"]["orders"]
        else:
            payload["problem"]["orders"] = orders
        with pytest.raises(ConfigError, match="orders"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("axis", [-1, 1, "0", True, False])
    def test_bad_axis(self, tmp_path, axis):
        payload = base_op_apply()
        payload["problem"]["axis"] = axis
        with pytest.raises(ConfigError, match="axis"):
            load_config(write(tmp_path, payload))

    def test_unknown_kernel(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["kernels"] = ["gauss"]
        with pytest.raises(ConfigError, match="kernel"):
            load_config(write(tmp_path, payload))

    def test_constant_kernel_accepted(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["kernels"] = ["constant"]
        cfg = load_config(write(tmp_path, payload))
        assert cfg.problem.kernels == [constant_kernel()]

    @pytest.mark.parametrize("kernels", [[], ["rl", "rl"], "rl"])
    def test_kernels_must_list_one_per_axis(self, tmp_path, kernels):
        payload = base_op_apply()
        payload["problem"]["kernels"] = kernels
        with pytest.raises(ConfigError, match="one kernel per axis") as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "kernels"

    def test_tabulated_kernel_accepted(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["kernels"] = [
            {"tabulated": [[0.1, 1.0], [0.5, 0.7], [1.0, 0.5]]}]
        cfg = load_config(write(tmp_path, payload))
        assert cfg.command == "op-apply"

    def test_bad_tabulated_kernel(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["kernels"] = [{"tabulated": [[0.5, 1.0]]}]
        with pytest.raises(ConfigError, match="tabulated"):
            load_config(write(tmp_path, payload))

    def test_tabulated_samples_must_be_numbers(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["kernels"] = [
            {"tabulated": [["0.1", True], [0.5, 0.7], [1.0, 0.5]]}]
        with pytest.raises(ConfigError, match="tabulated") as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "kernels"

    def test_missing_required_expression(self, tmp_path):
        payload = base_op_apply()
        del payload["problem"]["field"]
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "field"

    @pytest.mark.parametrize("field", [2, ["t1"], True])
    def test_expression_must_be_a_string(self, tmp_path, field):
        payload = base_op_apply()
        payload["problem"]["field"] = field
        with pytest.raises(ConfigError, match="expression string") as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "field"

    def test_expression_syntax_error_surfaces(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["field"] = "t1 +"
        with pytest.raises(FracvarError):
            load_config(write(tmp_path, payload))

    def test_u_not_allowed_in_plain_expression(self, tmp_path):
        payload = base_op_apply()
        payload["problem"]["field"] = "u^2"
        with pytest.raises(ParseError):
            load_config(write(tmp_path, payload))


class TestPerCommand:
    def test_ibp_happy(self, tmp_path):
        assert load_config(write(tmp_path, base_ibp())).command == "ibp-check"

    def test_ibp_identity_choices(self, tmp_path):
        payload = base_ibp()
        payload["problem"]["identity"] = "duality"
        load_config(write(tmp_path, payload))
        payload["problem"]["identity"] = "weak"
        with pytest.raises(ConfigError, match="identity"):
            load_config(write(tmp_path, payload))

    def test_ibp_requires_eta(self, tmp_path):
        payload = base_ibp()
        del payload["problem"]["eta"]
        with pytest.raises(ConfigError, match="eta"):
            load_config(write(tmp_path, payload))

    def test_el_happy(self, tmp_path):
        assert load_config(write(tmp_path, base_el())).command == "el-residual"

    def test_el_requires_both_pset_lists(self, tmp_path):
        payload = base_el()
        del payload["problem"]["psets2"]
        with pytest.raises(ConfigError, match="psets2"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("mixed", [True, False])
    def test_el_mixed_flag(self, tmp_path, mixed):
        payload = base_el()
        payload["problem"]["mixed"] = mixed
        assert load_config(write(tmp_path, payload)).problem.mixed is mixed

    @pytest.mark.parametrize("mixed", ["false", "true", 1, 0, None])
    def test_el_mixed_must_be_a_json_boolean(self, tmp_path, mixed):
        # bool("false") is True: a string flag would select the mixed
        # residual silently.
        payload = base_el()
        payload["problem"]["mixed"] = mixed
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "mixed"

    @pytest.mark.parametrize("key, value", [
        ("psets1", [[0.6]]),
        ("psets2", [["p", 0.4]]),
        ("kernels_alpha", [{"tabulated": [[0.5, 1.0]]}]),
        ("kernels_beta", ["gauss"]),
    ])
    def test_bad_entry_names_its_key(self, tmp_path, key, value):
        payload = base_el()
        payload["problem"][key] = value
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == key

    def test_unknown_lagrangian_lists_builtins(self, tmp_path):
        payload = base_el()
        payload["problem"]["lagrangian"] = "bogus"
        with pytest.raises(ConfigError, match="built-ins"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("name", [[], {}, 3])
    def test_lagrangian_must_be_a_name(self, tmp_path, name):
        payload = base_el()
        payload["problem"]["lagrangian"] = name
        with pytest.raises(ConfigError, match="built-ins") as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "lagrangian"

    def test_noether_happy(self, tmp_path):
        cfg = load_config(write(tmp_path, base_noether()))
        assert cfg.command == "noether-check"

    def test_noether_generator_may_use_u(self, tmp_path):
        payload = base_noether()
        payload["problem"]["generator"] = "u"
        load_config(write(tmp_path, payload))

    def test_noether_requires_generator(self, tmp_path):
        payload = base_noether()
        del payload["problem"]["generator"]
        with pytest.raises(ConfigError, match="generator"):
            load_config(write(tmp_path, payload))

    def test_noether_u0_optional_but_checked(self, tmp_path):
        payload = base_noether()
        payload["problem"]["u0"] = "sin(pi*t1)"
        load_config(write(tmp_path, payload))
        payload["problem"]["u0"] = "u"          # state not available here
        with pytest.raises(ParseError):
            load_config(write(tmp_path, payload))

    def test_dirichlet_happy(self, tmp_path):
        cfg = load_config(write(tmp_path, base_dirichlet()))
        assert cfg.command == "dirichlet-solve"

    @pytest.mark.parametrize("tol", [0, -1e-8, "small", True, False])
    def test_dirichlet_bad_tol(self, tmp_path, tol):
        payload = base_dirichlet()
        payload["problem"]["tol"] = tol
        with pytest.raises(ConfigError, match="tol"):
            load_config(write(tmp_path, payload))

    def test_dirichlet_requires_boundary(self, tmp_path):
        payload = base_dirichlet()
        del payload["problem"]["boundary"]
        with pytest.raises(ConfigError, match="boundary"):
            load_config(write(tmp_path, payload))

    def test_wave_happy_classical_space(self, tmp_path):
        cfg = load_config(write(tmp_path, base_wave()))
        assert cfg.command == "wave-residual"

    def test_wave_needs_two_dims(self, tmp_path):
        payload = base_wave()
        payload["problem"]["ndim"] = 1
        with pytest.raises(ConfigError, match="ndim"):
            load_config(write(tmp_path, payload))

    @pytest.mark.parametrize("value", [0.0, True, False])
    @pytest.mark.parametrize("key", ["rho", "stiffness"])
    def test_wave_positive_coefficients(self, tmp_path, key, value):
        payload = base_wave()
        payload["problem"][key] = value
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, payload))

    def test_wave_fractional_space_counts(self, tmp_path):
        payload = base_wave()
        payload["problem"]["space_betas"] = [0.6]
        # With fractional space, one p-set and one kernel per axis.
        with pytest.raises(ConfigError, match="psets"):
            load_config(write(tmp_path, payload))
        payload["problem"]["psets"] = [[1.0, 0.0], [0.5, 0.5]]
        load_config(write(tmp_path, payload))

    def test_wave_space_betas_length(self, tmp_path):
        payload = base_wave()
        payload["problem"]["psets"] = [[1.0, 0.0], [0.5, 0.5]]
        payload["problem"]["space_betas"] = [0.6, 0.7]
        with pytest.raises(ConfigError, match="space_betas"):
            load_config(write(tmp_path, payload))

    def test_convergence_sweep_requires_oracle(self, tmp_path):
        payload = base_op_apply()
        payload["command"] = "convergence-sweep"
        payload["problem"]["f"] = payload["problem"].pop("field")
        payload["problem"]["oracle"] = "t1"
        load_config(write(tmp_path, payload))
        del payload["problem"]["oracle"]
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload))
        assert exc.value.field == "oracle"
