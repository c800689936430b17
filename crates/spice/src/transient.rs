//! Transient analysis of a single switching stage.
//!
//! Integrates the output-node ODE
//!
//! ```text
//! C · dV_out/dt = ± I_D(V_in(t), V_out)
//! ```
//!
//! with a linear input ramp, using 4th-order Runge–Kutta with a step sized
//! from the stage time constant, and measures the propagation delay as the
//! time between the input and output 50 % crossings — the standard
//! `.MEASURE TRIG v(in) VAL=vdd/2 TARG v(out) VAL=vdd/2` of a SPICE deck.
//! The integration stops on the step that crosses the output 50 % mark:
//! nothing after it can move the measurement, so the tail toward the rail
//! is never simulated and no output slew is measured.

use crate::mosfet::{DeviceType, Mosfet};
use crate::technology::Technology;
use crate::SpiceError;

/// Description of one switching stage to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// The equivalent conducting device (width already derated for stack).
    pub device: Mosfet,
    /// Total capacitance at the output node, fF (load + parasitic).
    pub cap_ff: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Input ramp duration (0 → V_DD), ps.
    pub slew_ps: f64,
}

/// Result of one transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientResult {
    /// 50 %-to-50 % propagation delay, ps.
    pub delay_ps: f64,
    /// RK4 steps integrated, the last being the one that crossed the
    /// output 50 % mark.
    pub steps: u64,
}

/// µA / fF → V/ps conversion: 1 µA into 1 fF slews 1 V per ns = 1e-3 V/ps.
const UA_PER_FF_TO_V_PER_PS: f64 = 1.0e-3;

/// Step budget: enough for very slow near-threshold corners.
const MAX_STEPS: u64 = 4_000_000;

/// The RK4 step of `stage`, ps: 1/400 of the stage time constant at full
/// drive, at most 1/40 of the input ramp, at least 1e-4 ps.
fn step_ps(tech: &Technology, stage: &Stage) -> f64 {
    let i_full = stage.device.saturation_current(tech, stage.vdd).max(1e-9);
    let tau_ps = stage.cap_ff * stage.vdd / (i_full * UA_PER_FF_TO_V_PER_PS);
    (tau_ps / 400.0)
        .min(stage.slew_ps.max(0.1) / 40.0)
        .max(1e-4)
}

/// Runs a transient analysis of `stage` and measures the propagation delay.
///
/// The output starts at the opposite rail and is driven toward the target
/// rail by the conducting device while the input ramps linearly across the
/// supply. For an NMOS stage the output falls from `vdd` to 0; for a PMOS
/// stage it rises from 0 to `vdd`. The run ends on the step whose output
/// crosses `vdd/2`; the crossing time is interpolated linearly within it.
///
/// # Errors
///
/// * [`SpiceError::InvalidOperatingPoint`] if `vdd` is at or below the
///   device threshold (the stage would never switch) or parameters are
///   non-finite/non-positive.
/// * [`SpiceError::NoConvergence`] if the output 50 % crossing is not
///   reached within the step budget (pathological configurations only).
pub fn simulate_stage(tech: &Technology, stage: &Stage) -> Result<TransientResult, SpiceError> {
    let vdd = stage.vdd;
    if !vdd.is_finite() || !stage.cap_ff.is_finite() || stage.cap_ff <= 0.0 {
        return Err(SpiceError::InvalidOperatingPoint {
            vdd,
            reason: "non-finite or non-positive stage parameters",
        });
    }
    if vdd <= stage.device.vth + 0.05 {
        return Err(SpiceError::InvalidOperatingPoint {
            vdd,
            reason: "supply voltage at or below device threshold",
        });
    }

    let falling = stage.device.device == DeviceType::Nmos;
    let v_half = vdd / 2.0;
    // Input 50 % crossing of the linear ramp.
    let t_in_cross = stage.slew_ps * 0.5;

    // Gate overdrive magnitude as a function of time: the input ramps from
    // the non-conducting rail to the conducting rail over slew_ps. For the
    // NMOS (output falls) the input rises 0→vdd so |Vgs| = Vin; for the
    // PMOS (output rises) the input falls vdd→0 so |Vgs| = vdd − Vin. Both
    // give the same ramp in magnitude.
    let vgs_at = |t: f64| -> f64 {
        if stage.slew_ps <= 0.0 {
            vdd
        } else {
            (vdd * t / stage.slew_ps).clamp(0.0, vdd)
        }
    };

    let dt = step_ps(tech, stage);

    // State: output voltage. vds magnitude is |V_out − conducting rail|.
    let mut v_out = if falling { vdd } else { 0.0 };
    let mut t = 0.0f64;

    // The gate drives of the last two distinct |Vgs| values, keyed by their
    // bits, oldest first. RK4 evaluates the ramp at t, twice at t + dt/2
    // and at t + dt, which is the next step's t, so two entries halve the
    // drive evaluations during the ramp; once the input has settled at the
    // rail every lookup hits.
    let vgs_0 = vgs_at(t);
    let mut memo = [(vgs_0.to_bits(), stage.device.drive(tech, vgs_0)); 2];
    let mut dv_dt = |t: f64, v: f64| -> f64 {
        let vgs = vgs_at(t);
        let drive = match memo.iter().find(|(key, _)| *key == vgs.to_bits()) {
            Some(&(_, drive)) => drive,
            None => {
                let drive = stage.device.drive(tech, vgs);
                memo = [memo[1], (vgs.to_bits(), drive)];
                drive
            }
        };
        let vds = if falling { v } else { vdd - v };
        let i = Mosfet::current_at(drive, vds);
        let slope = i * UA_PER_FF_TO_V_PER_PS / stage.cap_ff;
        if falling {
            -slope
        } else {
            slope
        }
    };

    for step in 1..=MAX_STEPS {
        let v_prev = v_out;
        let t_prev = t;
        // Classic RK4.
        let k1 = dv_dt(t, v_out);
        let k2 = dv_dt(t + dt / 2.0, v_out + dt / 2.0 * k1);
        let k3 = dv_dt(t + dt / 2.0, v_out + dt / 2.0 * k2);
        let k4 = dv_dt(t + dt, v_out + dt * k3);
        v_out += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        v_out = v_out.clamp(0.0, vdd);
        t += dt;

        // The output 50 % crossing, interpolated linearly within the step.
        let crossed = if falling {
            v_prev > v_half && v_out <= v_half
        } else {
            v_prev < v_half && v_out >= v_half
        };
        if crossed {
            let frac = if (v_out - v_prev).abs() < 1e-15 {
                1.0
            } else {
                (v_half - v_prev) / (v_out - v_prev)
            };
            let t_out = t_prev + frac.clamp(0.0, 1.0) * dt;
            return Ok(TransientResult {
                delay_ps: t_out - t_in_cross,
                steps: step,
            });
        }
    }
    Err(SpiceError::NoConvergence { reached_ps: t })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::nm15()
    }

    fn stage(vdd: f64, cap: f64, width: f64, falling: bool) -> Stage {
        let t = tech();
        Stage {
            device: if falling {
                Mosfet::nmos(&t, width)
            } else {
                Mosfet::pmos(&t, width)
            },
            cap_ff: cap,
            vdd,
            slew_ps: t.input_slew_ps,
        }
    }

    #[test]
    fn nominal_inverter_delay_in_picosecond_range() {
        let t = tech();
        let r = simulate_stage(&t, &stage(0.8, 2.0, 1.0, true)).unwrap();
        assert!(
            r.delay_ps > 1.0 && r.delay_ps < 50.0,
            "nominal fall delay {} ps outside plausible range",
            r.delay_ps
        );
    }

    #[test]
    fn run_ends_on_the_crossing_step() {
        let t = tech();
        for s in [
            stage(0.8, 2.0, 1.0, true),
            stage(0.55, 128.0, 0.5, false),
            stage(1.1, 0.5, 4.0, true),
        ] {
            let r = simulate_stage(&t, &s).unwrap();
            assert_eq!(simulate_stage(&t, &s).unwrap(), r, "deterministic");
            let dt = step_ps(&t, &s);
            let t_cross = r.delay_ps + s.slew_ps / 2.0;
            let overshoot = r.steps as f64 * dt - t_cross;
            assert!(
                overshoot < dt && overshoot > -1e-9 * t_cross,
                "{} steps of {dt} ps end {overshoot} ps after the crossing at {t_cross} ps",
                r.steps
            );
        }
    }

    #[test]
    fn delay_increases_at_low_voltage() {
        let t = tech();
        let d_nom = simulate_stage(&t, &stage(0.8, 2.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let d_low = simulate_stage(&t, &stage(0.55, 2.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let d_high = simulate_stage(&t, &stage(1.1, 2.0, 1.0, true))
            .unwrap()
            .delay_ps;
        assert!(d_low > d_nom && d_nom > d_high);
        // The paper's Table II shows ~30–40 % swing from 0.55 V to 0.8 V;
        // the model should be strongly non-linear in that range.
        assert!(d_low / d_nom > 1.2, "ratio {}", d_low / d_nom);
    }

    #[test]
    fn delay_increases_with_load() {
        let t = tech();
        let d_small = simulate_stage(&t, &stage(0.8, 0.5, 1.0, true))
            .unwrap()
            .delay_ps;
        let d_big = simulate_stage(&t, &stage(0.8, 128.0, 1.0, true))
            .unwrap()
            .delay_ps;
        assert!(d_big > 10.0 * d_small);
    }

    #[test]
    fn delay_scales_inverse_with_width() {
        let t = tech();
        let d1 = simulate_stage(&t, &stage(0.8, 8.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let d4 = simulate_stage(&t, &stage(0.8, 8.0, 4.0, true))
            .unwrap()
            .delay_ps;
        let ratio = d1 / d4;
        assert!(
            (3.0..5.0).contains(&ratio),
            "4× width should give ≈4× speed, got {ratio}"
        );
    }

    #[test]
    fn rise_slower_than_fall_at_equal_width() {
        let t = tech();
        let fall = simulate_stage(&t, &stage(0.8, 4.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let rise = simulate_stage(&t, &stage(0.8, 4.0, 1.0, false))
            .unwrap()
            .delay_ps;
        assert!(
            rise > fall,
            "PMOS (k_p < k_n) must be slower: {rise} vs {fall}"
        );
    }

    #[test]
    fn subthreshold_supply_rejected() {
        let t = tech();
        assert!(matches!(
            simulate_stage(&t, &stage(0.2, 2.0, 1.0, true)),
            Err(SpiceError::InvalidOperatingPoint { .. })
        ));
    }

    #[test]
    fn bad_cap_rejected() {
        let t = tech();
        let mut s = stage(0.8, 2.0, 1.0, true);
        s.cap_ff = 0.0;
        assert!(simulate_stage(&t, &s).is_err());
        s.cap_ff = f64::NAN;
        assert!(simulate_stage(&t, &s).is_err());
    }

    #[test]
    fn zero_slew_step_input_works() {
        let t = tech();
        let mut s = stage(0.8, 2.0, 1.0, true);
        s.slew_ps = 0.0;
        let r = simulate_stage(&t, &s).unwrap();
        assert!(r.delay_ps > 0.0);
    }

    #[test]
    fn matches_rc_estimate_order_of_magnitude() {
        // Analytic sanity: delay ≈ C·V/2 / I_sat within a small factor.
        let t = tech();
        let s = stage(0.8, 16.0, 1.0, true);
        let i = s.device.saturation_current(&t, 0.8);
        let est = s.cap_ff * 0.4 / (i * 1e-3);
        let r = simulate_stage(&t, &s).unwrap();
        assert!(
            r.delay_ps > 0.3 * est && r.delay_ps < 3.0 * est,
            "delay {} vs RC estimate {est}",
            r.delay_ps
        );
    }
}
