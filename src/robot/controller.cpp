#include "robot/controller.h"

#include "common/error.h"
#include "common/log.h"

namespace pmp::robot {

using rt::List;
using rt::Value;

RobotController::RobotController(sim::Simulator& sim, rt::Runtime& runtime, std::string label)
    : sim_(sim), runtime_(runtime), label_(std::move(label)) {}

RobotController::~RobotController() { sim_.cancel(step_timer_); }

std::shared_ptr<rt::ServiceObject> RobotController::add_motor(const std::string& name,
                                                              double deg_per_sec_full) {
    auto motor = make_motor(runtime_, name, deg_per_sec_full);
    devices_[name] = motor;
    return motor;
}

std::shared_ptr<rt::ServiceObject> RobotController::add_sensor(const std::string& name,
                                                               const std::string& kind) {
    auto sensor = make_sensor(runtime_, name, kind);
    sensor->state<SensorImpl>().on_event = [this, name](std::int64_t reading) {
        sensor_event(name, reading);
    };
    devices_[name] = sensor;
    return sensor;
}

std::shared_ptr<rt::ServiceObject> RobotController::device(const std::string& name) const {
    auto it = devices_.find(name);
    return it == devices_.end() ? nullptr : it->second;
}

bool RobotController::start_task(Task task) {
    if (current_) return false;
    current_ = Running{std::move(task), 0};
    log_debug(sim_.now(), "robot.controller@" + label_, "task '", current_->task.name,
              "' started");
    schedule_next_step(Duration{0});
    return true;
}

void RobotController::abort_task() {
    if (!current_) return;
    finish_task(false);
}

void RobotController::push_override(Task task) {
    ++stats_.overrides_run;
    sim_.cancel(step_timer_);
    if (current_) {
        suspended_.push_back(std::move(*current_));
        current_.reset();
    }
    current_ = Running{std::move(task), 0};
    log_debug(sim_.now(), "robot.controller@" + label_, "override '", current_->task.name,
              "' started");
    schedule_next_step(Duration{0});
}

rt::Value RobotController::direct(const std::string& device_name, const std::string& action,
                                  rt::List args) {
    auto dev = device(device_name);
    if (!dev) throw Error("robot '" + label_ + "' has no device '" + device_name + "'");
    return dev->call(action, std::move(args));
}

void RobotController::schedule_next_step(Duration delay) {
    step_timer_ = sim_.schedule_after(delay, [this]() { run_step(); });
}

void RobotController::run_step() {
    if (!current_ || frozen_) return;
    Running& run = *current_;
    if (run.next_step >= run.task.steps.size()) {
        finish_task(true);
        return;
    }
    const MacroStep& step = run.task.steps[run.next_step++];
    auto dev = device(step.device);
    if (!dev) {
        log_warn(sim_.now(), "robot.controller@" + label_, "task '", run.task.name,
                 "' references unknown device '", step.device, "'");
        finish_task(false);
        return;
    }
    Duration pace{0};
    try {
        Value result = dev->call(step.action, step.args);
        ++stats_.macros_executed;
        // Macros that take physical time (rotate) report their duration;
        // the next macro starts when this one finishes.
        if (result.is_int()) pace = milliseconds(result.as_int());
    } catch (const AccessDenied& e) {
        // A policy extension vetoed the macro: the task cannot proceed.
        log_info(sim_.now(), "robot.controller@" + label_, "macro denied: ", e.what());
        finish_task(false);
        return;
    } catch (const Error& e) {
        log_warn(sim_.now(), "robot.controller@" + label_, "macro failed: ", e.what());
        finish_task(false);
        return;
    }
    schedule_next_step(pace);
}

void RobotController::finish_task(bool completed) {
    sim_.cancel(step_timer_);
    if (!current_) return;
    Running finished = std::move(*current_);
    current_.reset();
    if (completed) {
        ++stats_.tasks_completed;
    } else {
        ++stats_.tasks_aborted;
    }
    log_debug(sim_.now(), "robot.controller@" + label_, "task '", finished.task.name, "' ",
              completed ? "completed" : "aborted");
    if (finished.task.on_done) finished.task.on_done(completed);

    // Overriding layer: resume whatever was suspended.
    if (!current_ && !suspended_.empty()) {
        current_ = std::move(suspended_.back());
        suspended_.pop_back();
        schedule_next_step(Duration{0});
    }
}

void RobotController::freeze_hardware(bool frozen) {
    frozen_ = frozen;
    for (auto& [_, dev] : devices_) {
        if (dev->type().name() == "Motor") {
            dev->state<MotorImpl>().frozen = frozen;
        }
    }
}

void RobotController::sensor_event(const std::string& sensor, std::int64_t reading) {
    ++stats_.events_handled;
    if (!current_) return;

    // Paper: "the hardware completely freezes its activity and notifies the
    // robot application layer of the occurred event."
    freeze_hardware(true);
    sim_.cancel(step_timer_);

    TaskDecision decision = current_->task.on_event
                                ? current_->task.on_event(sensor, reading)
                                : TaskDecision::kAbort;
    freeze_hardware(false);
    if (decision == TaskDecision::kAbort) {
        finish_task(false);
    } else {
        schedule_next_step(Duration{0});
    }
}

}  // namespace pmp::robot
