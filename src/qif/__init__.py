"""qif: quantum interference of force in a two-path interferometer.

Simulates a particle in a Mach-Zehnder interferometer that receives a
momentum kick +delta in one arm only, and shows that post-selection on one
exit port can leave the particle with a *negative* average momentum.

Modules:
    wavepacket     momentum-space states on a uniform grid
    interferometer the two-mode state, its primitives, the interferometer pipeline
    analytic       closed-form Gaussian port statistics (the oracle)
    splitstep      split-step Schrodinger propagation of the kick
    feasibility    SI-unit electron-beam estimates
    spinor         cold-atom pulse sequence over the same two-mode state
    circuitfile    the .qif experiment-description language
    sweepcsv       the sweep CSV and its exact "%.17g" formatter
    cli            command-line interface
"""

__version__ = "0.1.0"
