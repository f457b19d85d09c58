"""Lane-keeping path planning toolkit.

Plans lateral paths within a lane corridor by condensing previewed road
geometry into three node points, mapping subsection curvatures to lateral
offsets through a linear gain matrix, and fitting Euler curves through the
offset node points. Includes drive-log replay, least-squares gain
calibration, and safety / human-likeness evaluation metrics.
"""
